package sim

import (
	"fmt"
	"strings"
	"testing"
)

// permuteFunc adapts a function to the TimedPermuter interface.
type permuteFunc func(now Time, actions []TimedAction, order []int)

func (f permuteFunc) PermuteTimed(now Time, actions []TimedAction, order []int) {
	f(now, actions, order)
}

// permuteWorkload builds a workload with same-instant collisions between
// process timeouts and timed event notifications and returns its wake log.
func permuteWorkload(p TimedPermuter) []string {
	k := New()
	if p != nil {
		k.SetTimedPermuter(p)
	}
	var log []string
	emit := func(s string, now Time) { log = append(log, fmt.Sprintf("%s@%v", s, now)) }
	ev := k.NewEvent("ev")
	k.NewMethod("m", func() { emit("m", k.Now()) }, false, ev)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(pr *Proc) {
			for t := 0; t < 4; t++ {
				pr.Wait(10 * Us) // all three procs collide every 10us
				emit(name, pr.Now())
			}
		})
	}
	k.Spawn("notifier", func(pr *Proc) {
		ev.NotifyIn(20 * Us) // collides with the 20us proc batch
		pr.Wait(30 * Us)
		ev.NotifyIn(10 * Us) // collides with the 40us proc batch
	})
	k.Run()
	return log
}

// TestPermuterIdentityMatchesPlain pins the choice-point layer's zero-cost
// default: an installed permuter that keeps the identity order must produce
// exactly the plain (no permuter) execution.
func TestPermuterIdentityMatchesPlain(t *testing.T) {
	identity := permuteFunc(func(Time, []TimedAction, []int) {})
	plain := permuteWorkload(nil)
	got := permuteWorkload(identity)
	if strings.Join(got, " ") != strings.Join(plain, " ") {
		t.Errorf("identity permuter diverged:\n got %v\nwant %v", got, plain)
	}
}

// TestPermuterReverseReordersBatch checks that a reversing permuter actually
// controls the firing order of a same-instant batch.
func TestPermuterReverseReordersBatch(t *testing.T) {
	reverse := permuteFunc(func(_ Time, _ []TimedAction, order []int) {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	})
	k := New()
	k.SetTimedPermuter(reverse)
	var log []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(pr *Proc) {
			pr.Wait(10 * Us)
			log = append(log, name)
		})
	}
	k.Run()
	if got, want := strings.Join(log, " "), "p2 p1 p0"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestPermuterActionsDescribeBatch checks the metadata shown to the permuter:
// sequence numbers, names, and the event/process distinction.
func TestPermuterActionsDescribeBatch(t *testing.T) {
	var seen []string
	spy := permuteFunc(func(now Time, actions []TimedAction, _ []int) {
		for _, a := range actions {
			seen = append(seen, fmt.Sprintf("%s/proc=%v@%v", a.Name, a.IsProc, now))
		}
	})
	k := New()
	k.SetTimedPermuter(spy)
	ev := k.NewEvent("tick")
	k.NewMethod("m", func() {}, false, ev)
	k.Spawn("worker", func(pr *Proc) {
		ev.NotifyIn(10 * Us)
		pr.Wait(10 * Us)
	})
	k.Run()
	want := []string{"tick/proc=false@10us", "worker/proc=true@10us"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("actions = %v, want %v", seen, want)
	}
}

// TestPermuterCancelWithinBatch exercises the dead-marking path: an event
// notification and the timeout of a process waiting on that same event land
// in one batch. Fired event first, the wake cancels the timeout mid-batch
// (the entry must be skipped, not double-fired); fired timeout first, the
// process times out and the event fires with no waiters. Both orders must be
// clean.
func TestPermuterCancelWithinBatch(t *testing.T) {
	run := func(eventFirst bool) (timedOut bool) {
		k := New()
		k.SetTimedPermuter(permuteFunc(func(_ Time, actions []TimedAction, order []int) {
			for i, a := range actions {
				if a.IsProc != eventFirst {
					// This is the entry that should fire first.
					order[0], order[i] = order[i], order[0]
					break
				}
			}
		}))
		ev := k.NewEvent("ev")
		k.Spawn("waiter", func(pr *Proc) {
			_, timedOut = pr.WaitTimeout(10*Us, ev)
		})
		k.Spawn("notifier", func(pr *Proc) {
			ev.NotifyIn(10 * Us)
		})
		k.Run()
		return timedOut
	}
	if timedOut := run(true); timedOut {
		t.Error("event fired first but the waiter timed out")
	}
	if timedOut := run(false); !timedOut {
		t.Error("timeout fired first but the waiter woke on the event")
	}
}

// TestPermuterInvalidOrderPanics pins the contract: a malformed permutation
// is a kernel panic, not a tolerated input.
func TestPermuterInvalidOrderPanics(t *testing.T) {
	cases := []struct {
		name string
		bad  permuteFunc
	}{
		{"duplicate", func(_ Time, _ []TimedAction, order []int) { order[1] = order[0] }},
		{"out-of-range", func(_ Time, _ []TimedAction, order []int) { order[0] = len(order) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			k := New()
			k.SetTimedPermuter(tc.bad)
			for i := 0; i < 2; i++ {
				k.Spawn(fmt.Sprintf("p%d", i), func(pr *Proc) { pr.Wait(10 * Us) })
			}
			k.Run()
		}()
	}
}
