package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesSettle waits for the goroutine count to fall back to baseline
// (plus slack for runtime helpers) and fails the test if it does not.
func goroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// panicModel spawns two processes that stay suspended on an event that
// never fires and one that panics at 2us.
func panicModel() *Kernel {
	k := New()
	never := k.NewEvent("never")
	for i := 0; i < 2; i++ {
		k.Spawn(fmt.Sprintf("idle%d", i), func(p *Proc) { p.WaitEvent(never) })
	}
	k.Spawn("bad", func(p *Proc) {
		p.Wait(2 * Us)
		panic("boom")
	})
	return k
}

// TestProcPanicFromRun pins what Run raises for a panicking body: a
// *SimError naming the process, with the kernel left between processes. The
// panicking process is terminated, and a following Shutdown unwinds the
// suspended ones without leaving a goroutine behind.
func TestProcPanicFromRun(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k := panicModel()
		r := func() (r any) {
			defer func() { r = recover() }()
			k.RunUntil(Ms)
			return nil
		}()
		se, ok := r.(*SimError)
		if !ok {
			t.Fatalf("panic value %T %v, want *SimError", r, r)
		}
		if se.Proc != "bad" || se.PanicValue != "boom" || se.At != 2*Us {
			t.Fatalf("SimError = %+v, want proc bad, value boom, at 2us", se)
		}
		if k.FinishReason() != FinishPanic || k.Current() != nil {
			t.Fatalf("after panic: finish %v, current %v", k.FinishReason(), k.Current())
		}
		bad := k.Processes()[2]
		if bad.State() != ProcTerminated {
			t.Fatalf("panicking process state = %v, want terminated", bad.State())
		}
		k.Shutdown()
		for _, p := range k.Processes() {
			if p.State() != ProcTerminated {
				t.Fatalf("%s: state %v after Shutdown", p.Name(), p.State())
			}
		}
	}
	goroutinesSettle(t, baseline)
}

// TestProcPanicFromRunChecked pins the RunChecked side: the error is the
// *SimError naming the process, the report says FinishPanic and lists the
// processes left waiting, and Shutdown afterwards leaks nothing.
func TestProcPanicFromRunChecked(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k := panicModel()
		rep, err := k.RunChecked(TimeMax)
		var se *SimError
		if !errors.As(err, &se) || se.Proc != "bad" || se.PanicValue != "boom" {
			t.Fatalf("err = %v, want a *SimError for process bad", err)
		}
		if rep.Reason != FinishPanic {
			t.Fatalf("reason = %v, want panic", rep.Reason)
		}
		var names []string
		for _, b := range rep.Blocked {
			names = append(names, b.Name)
		}
		if got := strings.Join(names, ","); got != "idle0,idle1" {
			t.Fatalf("report blocked = %q, want idle0,idle1", got)
		}
		if len(se.Blocked) != 2 {
			t.Fatalf("SimError blocked = %v, want the two idle processes", se.Blocked)
		}
		k.Shutdown()
	}
	goroutinesSettle(t, baseline)
}

// TestShutdownRunsBodyDefers checks the unwind a Shutdown drives through a
// suspended body: its deferred calls run, in order, also when one of them
// tries to wait again or panics, and the process ends terminated.
func TestShutdownRunsBodyDefers(t *testing.T) {
	k := New()
	never := k.NewEvent("never")
	var log []string
	p := k.Spawn("worker", func(p *Proc) {
		defer func() { log = append(log, "outer") }()
		defer func() {
			log = append(log, "panicking")
			panic("raised while unwinding")
		}()
		defer func() {
			log = append(log, "waiting")
			p.WaitEvent(never) // cannot suspend a dying process
			log = append(log, "resumed")
		}()
		p.Wait(Us)
		log = append(log, "suspended")
		p.WaitEvent(never)
		log = append(log, "woke")
	})
	k.RunUntil(Ms)
	if got := strings.Join(log, " "); got != "suspended" {
		t.Fatalf("before Shutdown: log %q", got)
	}
	k.Shutdown()
	if got, want := strings.Join(log, " "), "suspended waiting panicking outer"; got != want {
		t.Fatalf("unwind log %q, want %q", got, want)
	}
	if p.State() != ProcTerminated {
		t.Fatalf("state %v after Shutdown, want terminated", p.State())
	}
}

// TestRunForAlternatingGoroutines drives one kernel with RunFor from two
// goroutines in turn and shuts it down from a third, as a sharded run builds
// and shuts down a shard's kernel on one goroutine and runs it on another.
// The process bodies must see the same timeline as a run driven from one
// goroutine.
func TestRunForAlternatingGoroutines(t *testing.T) {
	model := func() (*Kernel, *[]string) {
		k := New()
		var log []string
		ev := k.NewEvent("ev")
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(p *Proc) {
				for j := 0; ; j++ {
					if (i+j)%3 == 0 {
						ev.Notify()
						p.Wait(Time(1+i) * Us)
					} else {
						p.WaitTimeout(Time(2+j%5)*Us, ev)
					}
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			})
		}
		return k, &log
	}
	const rounds = 200
	ref, refLog := model()
	for i := 0; i < rounds; i++ {
		ref.RunFor(Us)
	}
	ref.Shutdown()

	k, log := model()
	turns := [2]chan int{make(chan int), make(chan int)}
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			for i := range turns[w] {
				k.RunFor(Us)
				if i+1 == rounds {
					close(done)
					continue
				}
				turns[1-w] <- i + 1
			}
		}()
	}
	turns[0] <- 0
	<-done
	close(turns[0])
	close(turns[1])
	k.Shutdown()
	if got, want := strings.Join(*log, " "), strings.Join(*refLog, " "); got != want {
		t.Fatalf("alternating-goroutine run diverged:\n got %.200s\nwant %.200s", got, want)
	}
	if k.Now() != ref.Now() || k.Activations() != ref.Activations() {
		t.Fatalf("now %v activations %d, want %v and %d", k.Now(), k.Activations(), ref.Now(), ref.Activations())
	}
}

// TestFarTimersThroughKernel schedules timers at the timing wheel's top
// levels (level 6 starts at 256^6 ps, about 281 s, and levels 6-7 span the
// rest of Time): waits, a timed event notification colliding with them, and
// a far timeout cancelled by an event. With no permuter they fire in scheduling order; a reversing
// permuter sees the whole same-instant batch and reverses it.
func TestFarTimersThroughKernel(t *testing.T) {
	run := func(p TimedPermuter) (string, *Kernel) {
		k := New()
		k.SetTimedPermuter(p)
		var log []string
		ev := k.NewEvent("far")
		poke := k.NewEvent("poke")
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(pr *Proc) {
				pr.Wait(300 * Sec)
				log = append(log, fmt.Sprintf("%s@%v", name, pr.Now()))
				pr.Wait(Time(100*(i+1)) * Sec)
				log = append(log, fmt.Sprintf("%s@%v", name, pr.Now()))
			})
		}
		k.Spawn("notifier", func(pr *Proc) {
			ev.NotifyIn(300 * Sec)
			pr.WaitEvent(ev)
			log = append(log, fmt.Sprintf("far@%v", pr.Now()))
		})
		k.Spawn("timeout", func(pr *Proc) {
			_, timedOut := pr.WaitTimeout(1000*Sec, poke)
			log = append(log, fmt.Sprintf("timeout=%v@%v", timedOut, pr.Now()))
		})
		k.Spawn("poker", func(pr *Proc) {
			pr.Wait(350 * Sec)
			poke.Notify()
		})
		k.RunUntil(Sec)
		if k.wheel.findSlot(6) < 0 && k.wheel.findSlot(7) < 0 {
			t.Fatal("no timer reached wheel levels 6-7")
		}
		k.Run()
		return strings.Join(log, " "), k
	}
	plain, k := run(nil)
	want := "p0@300s p1@300s p2@300s far@300s timeout=false@350s p0@400s p1@500s p2@600s"
	if plain != want {
		t.Fatalf("plain order:\n got %s\nwant %s", plain, want)
	}
	if k.FinishReason() != FinishQuiescent {
		t.Fatalf("finish = %v, want quiescent", k.FinishReason())
	}
	reverse := permuteFunc(func(_ Time, _ []TimedAction, order []int) {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	})
	got, _ := run(reverse)
	want = "far@300s p2@300s p1@300s p0@300s timeout=false@350s p0@400s p1@500s p2@600s"
	if got != want {
		t.Fatalf("reversed order:\n got %s\nwant %s", got, want)
	}
}
