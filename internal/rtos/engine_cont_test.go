package rtos_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bodyForm selects how a differential workload expresses its task bodies:
// ordinary Go closures (run as coroutines on the task driver) or
// hand-written continuation Programs interpreted by the driver itself.
type bodyForm int

const (
	bodyGoroutine bodyForm = iota
	bodyContinuation
)

func (f bodyForm) String() string {
	if f == bodyContinuation {
		return "Program"
	}
	return "Go"
}

// periodicContWorkload builds a three-task periodic system (Execute, Delay,
// Yield, preemption toggles) in either body form: Go closures passed to
// NewPeriodicTask, or the same op sequences as Programs passed to
// NewPeriodicContTask.
func periodicContWorkload(form bodyForm, eng rtos.EngineKind, horizon sim.Time) (string, string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Overheads: rtos.UniformOverheads(sim.Us),
	})
	specs := []struct {
		name string
		cfg  rtos.TaskConfig
		body func(*rtos.TaskCtx, int)
		prog *rtos.Program
	}{
		{"video", rtos.TaskConfig{Period: 120 * sim.Us, Priority: 8, OnMiss: rtos.MissAbortJob},
			func(c *rtos.TaskCtx, cycle int) {
				c.Execute(30 * sim.Us)
				c.Delay(10 * sim.Us)
				c.Execute(15 * sim.Us)
			},
			rtos.BuildProgram().Compute(30 * sim.Us).WaitFor(10 * sim.Us).Compute(15 * sim.Us).Build()},
		{"audio", rtos.TaskConfig{Period: 90 * sim.Us, Priority: 5, Jitter: 7 * sim.Us, OnMiss: rtos.MissSkipNextRelease},
			func(c *rtos.TaskCtx, cycle int) {
				c.DisablePreemption()
				c.Execute(12 * sim.Us)
				c.EnablePreemption()
				c.Execute(20 * sim.Us)
			},
			rtos.BuildProgram().
				Do(func(c *rtos.TaskCtx) { c.DisablePreemption() }).
				Compute(12 * sim.Us).
				Do(func(c *rtos.TaskCtx) { c.EnablePreemption() }).
				Compute(20 * sim.Us).Build()},
		{"log", rtos.TaskConfig{Period: 300 * sim.Us, Priority: 2, StartAt: 40 * sim.Us},
			func(c *rtos.TaskCtx, cycle int) {
				c.Execute(25 * sim.Us)
				c.Yield()
				c.Execute(25 * sim.Us)
			},
			rtos.BuildProgram().Compute(25 * sim.Us).Yield().Compute(25 * sim.Us).Build()},
	}
	for _, s := range specs {
		if form == bodyContinuation {
			cpu.NewPeriodicContTask(s.name, s.cfg, s.prog)
		} else {
			cpu.NewPeriodicTask(s.name, s.cfg, s.body)
		}
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), "", sys.Rec
}

// TestContEquivalencePeriodic is the body forms' core differential golden: a
// periodic workload must produce a byte-identical trace whether its bodies
// are Go closures or Programs, on both RTOS engine implementations.
func TestContEquivalencePeriodic(t *testing.T) {
	const horizon = 3 * sim.Ms
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sigG, _, recG := periodicContWorkload(bodyGoroutine, eng, horizon)
			sigC, _, recC := periodicContWorkload(bodyContinuation, eng, horizon)
			if sigG != sigC {
				t.Fatalf("periodic traces diverge between body forms:\n%s",
					trace.Diff(recG, recC, horizon, 8))
			}
		})
	}
}

// commContWorkload builds a six-task communication mesh — queue
// producer/consumer, two mutex contenders, an event signaler/waiter — in
// either body form. The continuation form uses hand-built Programs with the
// blocking yield ops (LockMutex, WaitOn, PutMsg, GetMsg); the Go form uses
// the ordinary blocking API (through TaskCtx.Suspend) with the same
// durations and priorities.
func commContWorkload(form bodyForm, eng rtos.EngineKind, horizon sim.Time) (string, string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Overheads: rtos.UniformOverheads(2 * sim.Us),
	})
	q := comm.NewQueue[int](sys.Rec, "q", 2)
	mu := comm.NewMutex(sys.Rec, "mu")
	ev := comm.NewEvent(sys.Rec, "ev", comm.Counter)

	type spec struct {
		name string
		cfg  rtos.TaskConfig
		gor  func(*rtos.TaskCtx)
		prog *rtos.Program
	}
	specs := []spec{
		{
			name: "producer", cfg: rtos.TaskConfig{Priority: 3},
			gor: func(c *rtos.TaskCtx) {
				for {
					c.Execute(5 * sim.Us)
					q.Put(c, 1)
					c.Execute(2 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Compute(5 * sim.Us).
				Op(rtos.PutMsg(q, 1)).
				Compute(2 * sim.Us).
				End().Build(),
		},
		{
			name: "consumer", cfg: rtos.TaskConfig{Priority: 4},
			gor: func(c *rtos.TaskCtx) {
				for {
					_ = q.Get(c)
					c.Execute(7 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Op(rtos.GetMsg(q, nil)).
				Compute(7 * sim.Us).
				End().Build(),
		},
		{
			name: "locker1", cfg: rtos.TaskConfig{Priority: 6},
			gor: func(c *rtos.TaskCtx) {
				for {
					mu.Lock(c)
					c.Execute(4 * sim.Us)
					mu.Unlock(c)
					c.Delay(15 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Lock(mu).
				Compute(4 * sim.Us).
				Unlock(mu).
				WaitFor(15 * sim.Us).
				End().Build(),
		},
		{
			name: "locker2", cfg: rtos.TaskConfig{Priority: 5},
			gor: func(c *rtos.TaskCtx) {
				for {
					mu.Lock(c)
					c.Execute(6 * sim.Us)
					mu.Unlock(c)
					c.Delay(11 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Lock(mu).
				Compute(6 * sim.Us).
				Unlock(mu).
				WaitFor(11 * sim.Us).
				End().Build(),
		},
		{
			name: "signaler", cfg: rtos.TaskConfig{Priority: 2},
			gor: func(c *rtos.TaskCtx) {
				for {
					c.Execute(9 * sim.Us)
					ev.Signal(c)
					c.Delay(30 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				Compute(9 * sim.Us).
				Signal(ev).
				WaitFor(30 * sim.Us).
				End().Build(),
		},
		{
			name: "waiter", cfg: rtos.TaskConfig{Priority: 7},
			gor: func(c *rtos.TaskCtx) {
				for {
					ev.Wait(c)
					c.Execute(3 * sim.Us)
				}
			},
			prog: rtos.BuildProgram().Loop(-1).
				WaitOn(ev).
				Compute(3 * sim.Us).
				End().Build(),
		},
	}
	for _, s := range specs {
		if form == bodyContinuation {
			cpu.NewContTask(s.name, s.cfg, s.prog)
		} else {
			cpu.NewTask(s.name, s.cfg, s.gor)
		}
	}
	sys.RunUntil(horizon)
	key := rtosMetricsKeyFromSys(sys)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), key, sys.Rec
}

// rtosMetricsKeyFromSys serializes a system's rtos_* instruments, excluding
// rtos_continuation_resumes_total (the one counter that legitimately differs
// between body forms). Everything else — dispatches, preemptions, context
// switches, overhead time, per-task response histograms — must match exactly
// between a Go-bodied model and its Program twin.
func rtosMetricsKeyFromSys(sys *rtos.System) string {
	var keep []metrics.MetricSnapshot
	for _, m := range sys.Metrics.Snapshot().Metrics {
		if !strings.HasPrefix(m.Name, "rtos_") || m.Name == "rtos_continuation_resumes_total" {
			continue
		}
		keep = append(keep, m)
	}
	b, _ := json.Marshal(keep)
	return string(b)
}

// TestContEquivalenceComm extends the differential golden to the blocking
// communication primitives: mutex contention, event waits and bounded-queue
// backpressure must block, wake and hand over the processor at the same
// instants in both body forms, and all rtos_* metrics (minus the
// continuation-resume counter) must agree.
func TestContEquivalenceComm(t *testing.T) {
	const horizon = 2 * sim.Ms
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sigG, metG, recG := commContWorkload(bodyGoroutine, eng, horizon)
			sigC, metC, recC := commContWorkload(bodyContinuation, eng, horizon)
			if sigG != sigC {
				t.Fatalf("comm traces diverge between body forms:\n%s",
					trace.Diff(recG, recC, horizon, 8))
			}
			if metG != metC {
				t.Errorf("rtos_* metrics diverge between body forms:\n Go body: %s\n Program: %s", metG, metC)
			}
		})
	}
}

// buildContFaultMatrix is buildFaultMatrix with Program bodies: the same
// directed fault scenarios (one injector, one miss policy) with the periodic
// bodies written as programs. Its signature must match the Go-bodied
// buildFaultMatrix run on the same engine.
func buildContFaultMatrix(eng rtos.EngineKind, injector string, policy rtos.MissPolicy, horizon sim.Time) (string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng, Overheads: rtos.UniformOverheads(sim.Us)})
	load := cpu.NewPeriodicContTask("load", rtos.TaskConfig{
		Period: 100 * sim.Us, Priority: 5, OnMiss: policy,
	}, rtos.BuildProgram().Compute(60*sim.Us).Build())
	cpu.NewPeriodicContTask("rival", rtos.TaskConfig{
		Period: 130 * sim.Us, Priority: 7,
	}, rtos.BuildProgram().Compute(30*sim.Us).Build())
	switch injector {
	case "wcet":
		load.InjectWCETOverrun(rtos.WCETOverrun{Factor: 2, Probability: 0.5, Seed: 11})
	case "crash":
		load.InjectCrashAt(150 * sim.Us)
		load.InjectCrashAt(480 * sim.Us)
	case "hang":
		load.InjectHangAt(220*sim.Us, 90*sim.Us)
	case "hang-watchdog":
		load.InjectHangAt(220*sim.Us, 0)
		cpu.NewWatchdog("wd", 150*sim.Us, load)
	case "irq-drop", "irq-latency":
		irq := cpu.Interrupts().NewIRQ("rx", 1, 2*sim.Us, func(c *rtos.ISRCtx) {
			c.Execute(5 * sim.Us)
		})
		if injector == "irq-drop" {
			irq.InjectDrop(0.5, 7)
		} else {
			irq.InjectLatencySpike(25*sim.Us, 0.5, 7)
		}
		sys.NewHWTask("dev", rtos.HWConfig{}, func(c *rtos.HWCtx) {
			for {
				c.Wait(70 * sim.Us)
				irq.Raise()
			}
		})
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), sys.Rec
}

// TestContEquivalenceFaultMatrix runs the directed fault matrix (every
// injector × every miss policy) with Program bodies against the Go-bodied
// reference: WCET inflation, crash aborts (which unwind a Go body's
// coroutine), hangs, watchdog restarts and ISR interference must hit both
// forms at the same instants with the same recovery actions.
func TestContEquivalenceFaultMatrix(t *testing.T) {
	const horizon = sim.Ms
	for _, eng := range engines() {
		for _, inj := range faultMatrixInjectors {
			for _, pol := range faultMatrixPolicies {
				sigG, recG := buildFaultMatrix(eng, inj, pol, horizon)
				sigC, recC := buildContFaultMatrix(eng, inj, pol, horizon)
				if sigG != sigC {
					t.Fatalf("engine %v, injector %s, policy %v: traces diverge:\n%s",
						eng, inj, pol, trace.Diff(recG, recC, horizon, 8))
				}
			}
		}
	}
}

// multicoreContWorkload builds a four-task, two-core workload in either body
// form, pinned (partitioned) or migrating (global).
func multicoreContWorkload(form bodyForm, domain rtos.SchedDomain, horizon sim.Time) (string, *trace.Recorder) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Cores:     2,
		Domain:    domain,
		Overheads: rtos.UniformOverheads(sim.Us),
	})
	for i := 0; i < 4; i++ {
		cfg := rtos.TaskConfig{
			Period:   sim.Time(90+20*i) * sim.Us,
			Priority: 3 + i,
		}
		if domain == rtos.DomainPartitioned {
			cfg.Affinity = i % 2
		}
		name := fmt.Sprintf("t%d", i)
		if form == bodyContinuation {
			cpu.NewPeriodicContTask(name, cfg, rtos.BuildProgram().Compute(sim.Time(25+5*i)*sim.Us).Build())
		} else {
			cpu.NewPeriodicTask(name, cfg, func(c *rtos.TaskCtx, cycle int) {
				c.Execute(sim.Time(25+5*i) * sim.Us)
			})
		}
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return traceSignature(sys.Rec, horizon), sys.Rec
}

// TestContEquivalenceMulticore extends the differential golden to multi-core
// scheduling: partitioned affinity and global migration must place and move
// Program tasks across cores exactly as they do Go-bodied tasks.
func TestContEquivalenceMulticore(t *testing.T) {
	const horizon = 2 * sim.Ms
	for _, domain := range []rtos.SchedDomain{rtos.DomainPartitioned, rtos.DomainGlobal} {
		t.Run(fmt.Sprint(domain), func(t *testing.T) {
			sigG, recG := multicoreContWorkload(bodyGoroutine, domain, horizon)
			sigC, recC := multicoreContWorkload(bodyContinuation, domain, horizon)
			if sigG != sigC {
				t.Fatalf("multicore traces diverge between body forms:\n%s",
					trace.Diff(recG, recC, horizon, 8))
			}
		})
	}
}

// TestContMixedBodies runs Go-bodied and Program tasks side by side on one
// processor: the forms must interoperate through the shared ready queue and
// communication objects. Checked against the all-Go reference.
func TestContMixedBodies(t *testing.T) {
	const horizon = sim.Ms
	build := func(mixed bool) (string, *trace.Recorder) {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu0", rtos.Config{Overheads: rtos.UniformOverheads(sim.Us)})
		ev := comm.NewEvent(sys.Rec, "tick", comm.Counter)
		// Producer stays a Go body in both builds.
		cpu.NewTask("prod", rtos.TaskConfig{Priority: 2}, func(c *rtos.TaskCtx) {
			for {
				c.Execute(8 * sim.Us)
				ev.Signal(c)
				c.Delay(20 * sim.Us)
			}
		})
		// The consumer flips form between the builds.
		if mixed {
			cpu.NewContTask("cons", rtos.TaskConfig{Priority: 5}, rtos.BuildProgram().
				Loop(-1).WaitOn(ev).Compute(6*sim.Us).End().Build())
		} else {
			cpu.NewTask("cons", rtos.TaskConfig{Priority: 5}, func(c *rtos.TaskCtx) {
				for {
					ev.Wait(c)
					c.Execute(6 * sim.Us)
				}
			})
		}
		sys.RunUntil(horizon)
		sys.Shutdown()
		return traceSignature(sys.Rec, horizon), sys.Rec
	}
	sigG, recG := build(false)
	sigM, recM := build(true)
	if sigG != sigM {
		t.Fatalf("mixed-form traces diverge from the all-Go reference:\n%s",
			trace.Diff(recG, recM, horizon, 8))
	}
}

// TestContOneShot checks a one-shot continuation task's lifecycle: delayed
// start, a compute-sleep-compute program, terminal state and accounting.
func TestContOneShot(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewSystem()
			cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng})
			tk := cpu.NewContTask("once", rtos.TaskConfig{Priority: 1, StartAt: 10 * sim.Us},
				rtos.BuildProgram().
					Compute(20*sim.Us).
					WaitFor(5*sim.Us).
					Compute(15*sim.Us).
					Build())
			sys.Run()
			if got, want := tk.State(), trace.StateTerminated; got != want {
				t.Errorf("state = %v, want %v", got, want)
			}
			if got, want := tk.CPUTime(), 35*sim.Us; got != want {
				t.Errorf("CPUTime = %v, want %v", got, want)
			}
			if got := tk.CompletedCycles(); got != 1 {
				t.Errorf("CompletedCycles = %d, want 1", got)
			}
			if got, want := sys.K.Now(), 50*sim.Us; got != want {
				t.Errorf("finish time = %v, want %v", got, want)
			}
		})
	}
}

// TestContResumeCounter checks that task driver activity is visible on the
// rtos_continuation_resumes_total counter, for Program and Go bodies alike
// (every task runs on a driver).
func TestContResumeCounter(t *testing.T) {
	get := func(sys *rtos.System) int64 {
		m, ok := sys.Metrics.Snapshot().Get("rtos_continuation_resumes_total")
		if !ok {
			t.Fatal("rtos_continuation_resumes_total not registered")
		}
		return m.Value
	}
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	cpu.NewContTask("c", rtos.TaskConfig{}, rtos.BuildProgram().Compute(sim.Us).Build())
	sys.Run()
	if v := get(sys); v == 0 {
		t.Error("continuation task ran but resume counter is zero")
	}
	sys.Shutdown()

	sys2 := rtos.NewSystem()
	cpu2 := sys2.NewProcessor("cpu0", rtos.Config{})
	cpu2.NewTask("g", rtos.TaskConfig{}, func(c *rtos.TaskCtx) { c.Execute(sim.Us) })
	sys2.Run()
	if v := get(sys2); v == 0 {
		t.Error("Go-bodied task ran but resume counter is zero")
	}
	sys2.Shutdown()
}

// TestProgramLoops checks the program interpreter's loop semantics directly:
// counted loops, nesting, zero-iteration skips and builder validation.
func TestProgramLoops(t *testing.T) {
	// 2 outer × (1 compute + 3 inner computes) = 8 yields, then finish.
	p := rtos.BuildProgram().
		Loop(2).
		Compute(sim.Us).
		Loop(3).
		Compute(2 * sim.Us).
		End().
		End().
		Build()
	count := 0
	for {
		y := p.Resume(nil)
		if y.IsFinish() {
			break
		}
		count++
		if count > 100 {
			t.Fatal("program did not terminate")
		}
	}
	if count != 8 {
		t.Errorf("nested loop yielded %d ops, want 8", count)
	}
	p.Reset()
	if y := p.Resume(nil); y.IsFinish() {
		t.Error("Reset did not rewind the program")
	}

	// Zero-count loop body is skipped entirely.
	p0 := rtos.BuildProgram().Loop(0).Compute(sim.Us).End().Build()
	if y := p0.Resume(nil); !y.IsFinish() {
		t.Error("zero-count loop body ran")
	}

	defer func() {
		if recover() == nil {
			t.Error("Build with an unclosed loop did not panic")
		}
	}()
	rtos.BuildProgram().Loop(2).Compute(sim.Us).Build()
}

// TestContThreadGuards checks that the blocking TaskCtx API panics with a
// clear message when a Program's inline step tries to block: the step runs
// in kernel context, outside any Go body, and the panic names the call and
// the task.
func TestContThreadGuards(t *testing.T) {
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{})
	cpu.NewContTask("bad", rtos.TaskConfig{}, rtos.BuildProgram().
		Do(func(c *rtos.TaskCtx) { c.Delay(sim.Us) }).
		Build())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Delay inside a continuation inline step did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "Delay") || !strings.Contains(msg, `"bad"`) {
			t.Errorf("panic message %q does not name the call and the task", msg)
		}
	}()
	sys.Run()
}

// TestContAllocs pins the Program form's steady-state dispatch at zero
// heap allocations: two continuation tasks ping-ponging through counter
// events, with metrics on, must not allocate per switch round. This is the
// continuation twin of TestAllocsPerContextSwitch.
func TestContAllocs(t *testing.T) {
	for _, eng := range engines() {
		t.Run(eng.String(), func(t *testing.T) {
			sys := rtos.NewUntracedSystem()
			cpu := sys.NewProcessor("cpu", rtos.Config{Engine: eng})
			ping := comm.NewEvent(sys.Rec, "ping", comm.Counter)
			pong := comm.NewEvent(sys.Rec, "pong", comm.Counter)
			cpu.NewContTask("a", rtos.TaskConfig{Priority: 2}, rtos.BuildProgram().
				Loop(-1).
				Compute(sim.Us).
				Signal(ping).
				WaitOn(pong).
				End().Build())
			cpu.NewContTask("b", rtos.TaskConfig{Priority: 1}, rtos.BuildProgram().
				Loop(-1).
				WaitOn(ping).
				Compute(sim.Us).
				Signal(pong).
				End().Build())
			sys.RunFor(200 * sim.Us) // steady state
			defer sys.Shutdown()
			before := cpu.Dispatches()
			if avg := testing.AllocsPerRun(100, func() { sys.RunFor(2 * sim.Us) }); avg > 0 {
				t.Errorf("%s engine allocates %.2f objects per continuation switch round, want 0", eng, avg)
			}
			if cpu.Dispatches() == before {
				t.Error("no dispatches during the measured window; the test pinned nothing")
			}
		})
	}
}

// TestContFewerActivations verifies that task switches cost no kernel
// thread activation in either body form: under the procedural engine a
// task-only system needs none at all, because every task runs on its driver
// strand (a Go body as a coroutine of that strand), and the threaded engine
// pays activations for its RTOS thread only.
func TestContFewerActivations(t *testing.T) {
	run := func(form bodyForm, eng rtos.EngineKind) uint64 {
		sys := rtos.NewSystem()
		cpu := sys.NewProcessor("cpu0", rtos.Config{Engine: eng, Overheads: rtos.UniformOverheads(sim.Us)})
		for i := 0; i < 4; i++ {
			cfg := rtos.TaskConfig{Period: sim.Time(100+30*i) * sim.Us, Priority: i + 1}
			name := fmt.Sprintf("t%d", i)
			if form == bodyContinuation {
				cpu.NewPeriodicContTask(name, cfg, rtos.BuildProgram().Compute(sim.Time(20+5*i)*sim.Us).Build())
			} else {
				cpu.NewPeriodicTask(name, cfg, func(c *rtos.TaskCtx, cycle int) { c.Execute(sim.Time(20+5*i) * sim.Us) })
			}
		}
		sys.RunUntil(2 * sim.Ms)
		acts := sys.K.Activations()
		sys.Shutdown()
		return acts
	}
	for _, form := range []bodyForm{bodyGoroutine, bodyContinuation} {
		if a := run(form, rtos.EngineProcedural); a != 0 {
			t.Errorf("%v bodies: procedural engine used %d activations, want 0", form, a)
		}
		if a := run(form, rtos.EngineThreaded); a == 0 {
			t.Errorf("%v bodies: threaded engine used no activations; its RTOS thread must run", form)
		}
	}
}
