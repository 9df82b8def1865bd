package rtos_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// TestNoGoroutineLeaks checks that Shutdown stops every Go body's coroutine,
// wherever the body was suspended: mid-Execute, waiting on a mutex, in a bus
// transfer, after a RunUntil limit, after a body panic, with a deferred call
// that blocks, and after a watchdog restart unwound a job.
func TestNoGoroutineLeaks(t *testing.T) {
	cases := map[string]func(sys *rtos.System, cpu *rtos.Processor){
		"mid-execute": func(sys *rtos.System, cpu *rtos.Processor) {
			for i := 0; i < 5; i++ {
				cpu.NewTask("t", rtos.TaskConfig{Priority: i}, func(c *rtos.TaskCtx) { c.Execute(sim.Ms) })
			}
			sys.RunUntil(100 * sim.Us)
		},
		"mutex-wait": func(sys *rtos.System, cpu *rtos.Processor) {
			mu := comm.NewMutex(sys.Rec, "mu")
			for i := 0; i < 4; i++ {
				cpu.NewTask("t", rtos.TaskConfig{Priority: i}, func(c *rtos.TaskCtx) {
					mu.Lock(c)
					c.Execute(sim.Ms)
					mu.Unlock(c)
				})
			}
			sys.RunUntil(100 * sim.Us)
		},
		"bus-transfer": func(sys *rtos.System, cpu *rtos.Processor) {
			b := bus.New(sys.Rec, "bus", bus.Config{PerByte: sim.Us})
			ch := bus.NewChannel[int](b, "ch", 1, func(int) int { return 500 })
			for i := 0; i < 3; i++ {
				cpu.NewTask("tx", rtos.TaskConfig{Priority: i}, func(c *rtos.TaskCtx) {
					for {
						ch.Send(c, 1)
					}
				})
			}
			sys.RunUntil(100 * sim.Us)
		},
		"limit-then-continue": func(sys *rtos.System, cpu *rtos.Processor) {
			cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 50 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
				c.Execute(20 * sim.Us)
			})
			sys.RunUntil(120 * sim.Us)
			sys.RunUntil(333 * sim.Us)
		},
		"body-panic": func(sys *rtos.System, cpu *rtos.Processor) {
			cpu.NewTask("idle", rtos.TaskConfig{}, func(c *rtos.TaskCtx) { c.Execute(sim.Ms) })
			cpu.NewTask("boom", rtos.TaskConfig{Priority: 1}, func(c *rtos.TaskCtx) {
				c.Execute(10 * sim.Us)
				panic("boom")
			})
			if _, err := sys.RunChecked(sim.TimeMax); err == nil {
				t.Error("body panic not reported")
			}
		},
		"deferred-call-blocks-at-shutdown": func(sys *rtos.System, cpu *rtos.Processor) {
			cpu.NewTask("t", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
				defer c.Execute(sim.Us) // discarded while the body is stopped
				c.Execute(sim.Ms)
			})
			sys.RunUntil(100 * sim.Us)
		},
		"watchdog-restart": func(sys *rtos.System, cpu *rtos.Processor) {
			var wd *rtos.Watchdog
			task := cpu.NewPeriodicTask("p", rtos.TaskConfig{Period: 100 * sim.Us}, func(c *rtos.TaskCtx, cycle int) {
				wd.Kick()
				c.Execute(20 * sim.Us)
			})
			wd = cpu.NewWatchdog("wd", 150*sim.Us, task)
			task.InjectHangAt(210*sim.Us, 0)
			sys.RunUntil(800 * sim.Us)
			if task.AbortedCycles() == 0 {
				t.Error("watchdog restarted nothing")
			}
		},
	}
	for name, build := range cases {
		for _, eng := range engines() {
			runtime.GC()
			baseline := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				sys := rtos.NewSystem()
				build(sys, sys.NewProcessor("cpu", rtos.Config{Engine: eng}))
				sys.Shutdown()
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%s/%v: goroutines leaked: baseline %d, now %d", name, eng, baseline, n)
			}
		}
	}
}

// TestTaskPanicNamesTask checks that a panic inside a Go body surfaces as a
// *sim.SimError naming the task, as a panicking thread would.
func TestTaskPanicNamesTask(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		cpu.NewTask("boom", rtos.TaskConfig{}, func(c *rtos.TaskCtx) {
			c.Execute(10 * sim.Us)
			panic("kaboom")
		})
		_, err := sys.RunChecked(sim.TimeMax)
		sys.Shutdown()
		var se *sim.SimError
		if !errors.As(err, &se) || se.Proc != "boom" || se.PanicValue != "kaboom" || se.At != 10*sim.Us {
			t.Errorf("%v: got %#v, want a SimError for task boom at 10us", eng, err)
		}
	}
}

// TestProgramStepPanicNamesTask checks the same attribution for a panic in
// a Program's inline step, which runs in kernel context.
func TestProgramStepPanicNamesTask(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu", rtos.Config{})
	cpu.NewContTask("step", rtos.TaskConfig{}, rtos.BuildProgram().
		Compute(5*sim.Us).
		Do(func(*rtos.TaskCtx) { panic("bad step") }).
		Build())
	_, err := sys.RunChecked(sim.TimeMax)
	sys.Shutdown()
	var se *sim.SimError
	if !errors.As(err, &se) || se.Proc != "step" || se.PanicValue != "bad step" {
		t.Fatalf("got %#v, want a SimError for task step", err)
	}
	if !strings.Contains(err.Error(), `process "step" panicked`) {
		t.Errorf("message does not name the task: %v", err)
	}
}

// TestAbortUnwindsGoBody checks that a job abort unwinds a Go body's
// coroutine at the abort instant: the body's deferred calls run before the
// next release, so a mutex held across the aborted job is handed to its
// waiter right away.
func TestAbortUnwindsGoBody(t *testing.T) {
	for _, eng := range engines() {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
		mu := comm.NewMutex(sys.Rec, "mu")
		holder := cpu.NewPeriodicTask("holder", rtos.TaskConfig{Period: sim.Ms, Priority: 2}, func(c *rtos.TaskCtx, cycle int) {
			mu.Lock(c)
			defer mu.Unlock(c)
			c.Execute(300 * sim.Us)
		})
		holder.InjectCrashAt(100 * sim.Us)
		var got sim.Time
		cpu.NewTask("waiter", rtos.TaskConfig{Priority: 1, StartAt: 50 * sim.Us}, func(c *rtos.TaskCtx) {
			mu.Lock(c)
			got = c.Now()
			mu.Unlock(c)
		})
		sys.RunUntil(500 * sim.Us)
		sys.Shutdown()
		if got != 100*sim.Us {
			t.Errorf("%v: waiter acquired the mutex at %v, want 100us (the abort instant)", eng, got)
		}
		if holder.AbortedCycles() != 1 {
			t.Errorf("%v: %d aborted cycles, want 1", eng, holder.AbortedCycles())
		}
	}
}
