package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestNotifyInNegativePanics(t *testing.T) {
	k := New()
	e := k.NewEvent("e")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.NotifyIn(-1)
}

func TestNotifyInZeroIsDelta(t *testing.T) {
	k := New()
	e := k.NewEvent("e")
	var order []string
	k.Spawn("waiter", func(p *Proc) {
		p.WaitEvent(e)
		order = append(order, "woke")
	})
	k.Spawn("notifier", func(p *Proc) {
		e.NotifyIn(0)
		order = append(order, "notified")
	})
	k.Run()
	if len(order) != 2 || order[0] != "notified" || order[1] != "woke" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.Wait(10 * Us) })
	k.RunUntil(20 * Us)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		k.Shutdown()
	}()
	k.RunUntil(5 * Us)
}

func TestKernelCurrentAndAccessors(t *testing.T) {
	k := New()
	if k.Current() != nil {
		t.Fatal("current not nil outside run")
	}
	var sawSelf bool
	var p *Proc
	p = k.Spawn("p", func(q *Proc) {
		sawSelf = k.Current() == p
		if q.Kernel() != k {
			t.Error("Kernel() wrong")
		}
		q.Wait(Us)
	})
	k.Run()
	if !sawSelf {
		t.Fatal("Current() did not return the running process")
	}
}

func TestMethodNameAndManualTrigger(t *testing.T) {
	k := New()
	runs := 0
	m := k.NewMethod("meth", func() { runs++ }, false)
	if m.Name() != "meth" {
		t.Fatal("method name wrong")
	}
	k.Spawn("driver", func(p *Proc) {
		m.Trigger()
		m.Trigger() // coalesced while queued
		p.Wait(Us)
		m.Trigger()
	})
	k.Run()
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

func TestSpawnNilFnPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Spawn("bad", nil)
}

func TestNewMethodNilFnPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.NewMethod("bad", nil, false)
}

func TestWaitTimeoutNegativePanics(t *testing.T) {
	k := New()
	e := k.NewEvent("e")
	k.Spawn("p", func(p *Proc) { p.WaitTimeout(-1, e) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Run()
}

func TestWaitTimeoutNoEventsIsWait(t *testing.T) {
	k := New()
	var woke *Event
	var timedOut bool
	var at Time
	k.Spawn("p", func(p *Proc) {
		woke, timedOut = p.WaitTimeout(7 * Us)
		at = p.Now()
	})
	k.Run()
	if woke != nil || !timedOut || at != 7*Us {
		t.Fatalf("got (%v,%v) at %v", woke, timedOut, at)
	}
}

func TestMakeRunnableIgnoresTerminated(t *testing.T) {
	k := New()
	e := k.NewEvent("e")
	p := k.Spawn("p", func(p *Proc) {})
	k.RunUntil(Us)
	if p.State() != ProcTerminated {
		t.Fatalf("state = %v", p.State())
	}
	// A stale notification must not resurrect the terminated process.
	e.addWaiter(p)
	e.Notify()
	k.RunUntil(2 * Us)
	k.Shutdown()
	if p.State() != ProcTerminated {
		t.Fatal("terminated process resurrected")
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	// Every process coroutine must unwind at Shutdown: run many kernels
	// with suspended processes and verify the goroutine count returns to
	// baseline.
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		k := New()
		never := k.NewEvent("never")
		for j := 0; j < 20; j++ {
			k.Spawn(fmt.Sprintf("p%d", j), func(p *Proc) {
				p.Wait(Us)
				p.WaitEvent(never) // parks forever
			})
		}
		k.RunUntil(Ms)
		k.Shutdown()
	}
	// Give exiting goroutines a moment to unwind.
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

func TestReentrantRunPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		k.Run() // reentrant: must panic
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Run()
}
