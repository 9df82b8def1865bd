package rtos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// EngineKind selects one of the paper's two RTOS model implementations.
type EngineKind uint8

const (
	// EngineProcedural integrates the RTOS behaviour into the task state
	// transitions as procedure calls (paper section 4.2): "the RTOS is
	// implemented by a C++ object with a set of methods, but without using a
	// thread. Each task notifies the other ones by using methods of the RTOS
	// object." The switch sequence runs on the driver of the task leaving
	// the processor, or of the task that claimed an idle core, and the
	// context load on the driver of the elected task (Figure 5;
	// engine_cont.go). It is the default: the paper selects it for
	// simulation efficiency because scheduling adds no kernel thread switch
	// of its own.
	EngineProcedural EngineKind = iota
	// EngineThreaded models the RTOS with a dedicated scheduler thread
	// (paper section 4.1). Functionally identical, but every scheduling
	// action costs two extra kernel thread switches.
	EngineThreaded
)

func (k EngineKind) String() string {
	switch k {
	case EngineProcedural:
		return "procedural"
	case EngineThreaded:
		return "threaded"
	}
	return "invalid"
}

// Config carries a Processor's RTOS parameters.
type Config struct {
	// Engine selects the model implementation; the default is
	// EngineProcedural.
	Engine EngineKind
	// Policy is the scheduling policy; the default is PriorityPreemptive.
	Policy Policy
	// NonPreemptive starts the processor in non-preemptive mode (the mode
	// can be changed during the simulation with SetPreemptive).
	NonPreemptive bool
	// Overheads are the three RTOS overhead parameters; the zero value
	// models an ideal RTOS with no overhead.
	Overheads Overheads
	// Speed scales the processor's execution rate relative to the reference
	// processor the task durations were annotated for: Execute(d) consumes
	// d/Speed of simulated time. Zero means 1.0. This is the "effect of
	// processor change" axis of the paper's conclusion, complementing the
	// context-switch durations.
	Speed float64
	// Cores is the number of symmetric cores the RTOS schedules; zero means
	// one, which reproduces the paper's single-CPU model exactly.
	Cores int
	// Domain selects how a multi-core processor distributes its tasks:
	// DomainPartitioned (the default; per-task core pinning via
	// TaskConfig.Affinity) or DomainGlobal (one shared ready queue with task
	// migration). Ignored with one core, where both domains coincide.
	Domain SchedDomain
}

// Processor models a CPU running an RTOS that serializes a set of tasks.
type Processor struct {
	sys  *System
	k    *sim.Kernel
	rec  *trace.Recorder
	name string

	policy     Policy
	preemptive bool
	overheads  Overheads
	engineKind EngineKind
	speed      float64
	domain     SchedDomain

	// rtk hosts the switch sequences on per-core RTOS threads under
	// EngineThreaded; nil under EngineProcedural, whose task drivers host
	// them.
	rtk *threadedEngine

	tasks []*Task

	// cores are the execution units (schedcore.go); the slice is sized at
	// construction and never reallocated, so &cores[i] pointers are stable.
	cores []core
	// queues are the ready queues: one per core under DomainPartitioned, a
	// single shared one under DomainGlobal.
	queues []readyQueue

	// ordered is the policy's incremental-order view, nil for custom policies
	// without a built-in preference order. When set, each queue caches its
	// argmin under the order (see readyQueue).
	ordered orderedPolicy

	readySeqCtr uint64

	quantum sim.Time

	irqCtrl *InterruptController

	// invTrack enables priority-inversion accounting (inversion.go).
	invTrack bool

	// met are the processor's observability instruments (metrics.go),
	// registered at construction; nil-safe when the system has no registry.
	met procMetrics
}

// NewProcessor creates a processor on the system with the given RTOS
// configuration. Processors must be created before the simulation runs.
func (s *System) NewProcessor(name string, cfg Config) *Processor {
	cpu := &Processor{
		sys:        s,
		k:          s.K,
		rec:        s.Rec,
		name:       name,
		policy:     cfg.Policy,
		preemptive: !cfg.NonPreemptive,
		overheads:  cfg.Overheads,
		engineKind: cfg.Engine,
		speed:      cfg.Speed,
		domain:     cfg.Domain,
	}
	if cpu.policy == nil {
		cpu.policy = PriorityPreemptive{}
	}
	if cpu.speed == 0 {
		cpu.speed = 1.0
	}
	if cpu.speed < 0 {
		panic("rtos: processor speed must be positive")
	}
	if cfg.Cores < 0 {
		panic("rtos: processor core count must be positive")
	}
	if cpu.domain != DomainPartitioned && cpu.domain != DomainGlobal {
		panic(fmt.Sprintf("rtos: unknown scheduling domain %d", cfg.Domain))
	}
	nCores := cfg.Cores
	if nCores == 0 {
		nCores = 1
	}
	cpu.cores = make([]core, nCores)
	for i := range cpu.cores {
		cpu.cores[i].id = i
	}
	nQueues := nCores
	if cpu.domain == DomainGlobal {
		nQueues = 1
	}
	cpu.queues = make([]readyQueue, nQueues)
	cpu.ordered, _ = cpu.policy.(orderedPolicy)
	if qp, ok := cpu.policy.(QuantumPolicy); ok {
		cpu.quantum = qp.Quantum()
		if cpu.quantum <= 0 {
			panic("rtos: quantum policy with non-positive quantum")
		}
	}
	cpu.registerMetrics(s.Metrics)
	switch cfg.Engine {
	case EngineProcedural:
	case EngineThreaded:
		cpu.rtk = newThreadedEngine(cpu)
	default:
		panic(fmt.Sprintf("rtos: unknown engine kind %d", cfg.Engine))
	}
	s.cpus = append(s.cpus, cpu)
	return cpu
}

// Name returns the processor name.
func (cpu *Processor) Name() string { return cpu.name }

// PolicyName returns the active scheduling policy's name.
func (cpu *Processor) PolicyName() string { return cpu.policy.Name() }

// Engine returns which model implementation the processor uses.
func (cpu *Processor) Engine() EngineKind { return cpu.engineKind }

// Preemptive reports whether the processor is in preemptive mode.
func (cpu *Processor) Preemptive() bool { return cpu.preemptive }

// Speed returns the processor's execution-rate factor.
func (cpu *Processor) Speed() float64 { return cpu.speed }

// scaleExec converts an annotated execution duration into this processor's
// simulated time.
func (cpu *Processor) scaleExec(d sim.Time) sim.Time {
	if cpu.speed == 1.0 {
		return d
	}
	return d.Scale(1 / cpu.speed)
}

// SetPreemptive switches the preemptive/non-preemptive mode at run time
// (paper section 3.1). Enabling preemption re-evaluates the scheduling
// decision immediately.
func (cpu *Processor) SetPreemptive(on bool) {
	cpu.preemptive = on
	if on {
		cpu.reevaluate()
	}
}

// Tasks returns the processor's tasks in creation order.
func (cpu *Processor) Tasks() []*Task { return cpu.tasks }

// Running returns the task running on core 0 (the only core of a single-core
// processor), nil when idle or switching. See RunningOn for other cores.
func (cpu *Processor) Running() *Task { return cpu.cores[0].running }

// RunningOn returns the task running on the given core, nil when that core
// is idle or switching.
func (cpu *Processor) RunningOn(coreID int) *Task { return cpu.cores[coreID].running }

// Cores returns the processor's core count.
func (cpu *Processor) Cores() int { return len(cpu.cores) }

// Domain returns the processor's scheduling domain.
func (cpu *Processor) Domain() SchedDomain { return cpu.domain }

// ReadyCount returns the current number of ready tasks across all queues.
func (cpu *Processor) ReadyCount() int {
	n := 0
	for i := range cpu.queues {
		n += len(cpu.queues[i].tasks)
	}
	return n
}

// Dispatches returns the total number of task elections performed across all
// cores.
func (cpu *Processor) Dispatches() uint64 {
	var n uint64
	for i := range cpu.cores {
		n += cpu.cores[i].dispatches
	}
	return n
}

// Preemptions returns the total number of preemptions performed across all
// cores.
func (cpu *Processor) Preemptions() uint64 {
	var n uint64
	for i := range cpu.cores {
		n += cpu.cores[i].preemptions
	}
	return n
}

// Migrations returns how many dispatches moved a task to a different core
// than its previous one (always zero under DomainPartitioned).
func (cpu *Processor) Migrations() uint64 {
	var n uint64
	for i := range cpu.cores {
		n += cpu.cores[i].migrations
	}
	return n
}

// CoreDispatches returns the number of task elections completed on one core.
func (cpu *Processor) CoreDispatches(coreID int) uint64 { return cpu.cores[coreID].dispatches }

// CorePreemptions returns the number of preemptions performed on one core.
func (cpu *Processor) CorePreemptions(coreID int) uint64 { return cpu.cores[coreID].preemptions }

// CoreMigrations returns the number of dispatches that migrated a task onto
// this core from another one.
func (cpu *Processor) CoreMigrations(coreID int) uint64 { return cpu.cores[coreID].migrations }

// NewTask creates a task on the processor. The behaviour function runs once;
// write a loop inside it (or use NewPeriodicTask) for cyclic tasks. It runs
// as a coroutine on the task's driver, so its blocking TaskCtx calls cost no
// kernel thread switch.
func (cpu *Processor) NewTask(name string, cfg TaskConfig, fn func(*TaskCtx)) *Task {
	if fn == nil {
		panic("rtos: NewTask with nil behaviour")
	}
	return cpu.newContTask(name, cfg, nil, coBody{once: fn}, false, 0, nil)
}

// NewPeriodicTask creates a task released every cfg.Period (first release at
// cfg.StartAt) that runs body once per cycle, with the release, deadline,
// jitter and recovery semantics of NewPeriodicContTask.
func (cpu *Processor) NewPeriodicTask(name string, cfg TaskConfig, body func(c *TaskCtx, cycle int)) *Task {
	if cfg.Period <= 0 {
		panic("rtos: NewPeriodicTask requires a positive period")
	}
	if body == nil {
		panic("rtos: NewPeriodicTask with nil body")
	}
	return cpu.newPeriodicTask(name, cfg, nil, coBody{body: body})
}

// deadlineWatch is a periodic task's deadline watchdog: a kernel method
// armed at each cycle's absolute deadline instant — not at completion — so a
// miss is reported even for a cycle that never completes (a starved task).
// The task driver's periodic machinery arms it (engine_cont.go).
type deadlineWatch struct {
	cpu  *Processor
	name string
	tsk  *Task // assigned after task creation; the method only runs during simulation

	dlEvent       *sim.Event
	completed     int
	armed         int
	grace         bool
	armedDeadline sim.Time
}

// newDeadlineWatch creates the watch and arms the first cycle at
// elaboration: a task so starved that it never even dispatches must still
// have its deadline miss detected.
func newDeadlineWatch(cpu *Processor, name string, firstDeadline sim.Time) *deadlineWatch {
	w := &deadlineWatch{cpu: cpu, name: name, completed: -1, armed: -1}
	w.dlEvent = cpu.k.NewEvent(name + ".deadlineWatch")
	cpu.k.NewMethod(name+".deadlineCheck", w.check, false, w.dlEvent)
	w.armed, w.armedDeadline = 0, firstDeadline
	w.dlEvent.NotifyAt(firstDeadline)
	return w
}

func (w *deadlineWatch) check() {
	if w.completed >= w.armed {
		w.grace = false
		return
	}
	// Completing exactly at the deadline instant is a meet: give the
	// task's same-instant completion one delta cycle to land before
	// declaring the miss.
	if !w.grace {
		w.grace = true
		w.dlEvent.NotifyDelta()
		return
	}
	w.grace = false
	w.cpu.sys.Constraints.report(w.name, w.armedDeadline, w.cpu.k.Now())
	w.tsk.deadlineMissed(w.armed, w.armedDeadline)
}

// armCycle re-arms the watch for one cycle (or reports the miss immediately
// when the task was dispatched past its deadline already).
func (w *deadlineWatch) armCycle(cycle int, deadline, now sim.Time) {
	w.armed, w.armedDeadline = cycle, deadline
	if deadline < now {
		// Dispatched after the deadline already passed: immediate miss, no
		// point arming the watchdog.
		w.cpu.sys.Constraints.report(w.name, deadline, now)
		w.tsk.deadlineMissed(cycle, deadline)
	} else {
		w.dlEvent.Cancel()
		w.dlEvent.NotifyAt(deadline)
	}
}

// DefaultReleaseJitter returns the jitter value a periodic task uses when no
// release-jitter hook is installed (see System.SetReleaseJitterHook). It is
// exported so a schedule explorer can compute the nominal choice at each
// release before perturbing around it.
func DefaultReleaseJitter(name string, cycle int, max sim.Time) sim.Time {
	return releaseJitter(name, cycle, max)
}

// releaseJitter returns a deterministic pseudo-random jitter in [0, max]
// derived from the task name and cycle index (FNV-1a), so jittered runs
// reproduce exactly.
func releaseJitter(name string, cycle int, max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(cycle))
	h.Write(b[:])
	return sim.Time(h.Sum64() % uint64(max+1))
}

// overheadDur evaluates one overhead duration formula against the snapshot
// octx. A charge evaluates it at its start instant, waits the duration out on
// its host (a thread or a strand timer), and records on wake.
func (cpu *Processor) overheadDur(kind trace.OverheadKind, octx OverheadCtx) sim.Time {
	switch kind {
	case trace.OverheadScheduling:
		return cpu.overheads.scheduling(octx)
	case trace.OverheadContextSave:
		return cpu.overheads.save(octx)
	case trace.OverheadContextLoad:
		return cpu.overheads.load(octx)
	}
	return 0
}

// recordCharge books one completed overhead charge into the metrics and the
// trace.
func (cpu *Processor) recordCharge(kind trace.OverheadKind, t *Task, coreID int, start, end sim.Time) {
	name := ""
	if t != nil {
		name = t.name
	}
	cpu.met.overhead[kind].Add(uint64(end - start))
	if kind == trace.OverheadContextLoad {
		cpu.met.ctxSwitches.Inc()
	}
	cpu.rec.OverheadOn(cpu.name, name, coreID, kind, start, end)
}
