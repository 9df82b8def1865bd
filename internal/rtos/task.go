// Package rtos implements the paper's generic RTOS model on top of the
// discrete-event kernel of package sim.
//
// A Processor models a CPU managed by a real-time operating system: it
// serializes the execution of its Tasks according to a scheduling Policy, a
// preemptive/non-preemptive mode that can change during the simulation, and
// the three RTOS overhead parameters of the paper's section 3.2 (scheduling
// duration, context-save duration, context-load duration — fixed values or
// user formulas over the simulated system state).
//
// Two interchangeable engine implementations are provided, mirroring the
// paper's section 4: EngineThreaded schedules with a dedicated RTOS
// simulation thread (section 4.1), EngineProcedural integrates the RTOS
// behaviour into the task state transitions using plain procedure calls
// (section 4.2). Both produce identical simulated timing; the procedural
// engine needs far fewer kernel thread switches and therefore simulates
// faster, which is the paper's reason for selecting it.
//
// Tasks themselves run the way a SystemC thread does, as coroutines the
// kernel resumes: every task is executed by a driver state machine on a
// sim.Strand (engine_cont.go), and an ordinary Go body runs as a coroutine
// that yields the driver one scheduling-relevant operation at a time
// (cobody.go).
package rtos

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TaskState re-exports the trace state vocabulary for convenience.
type TaskState = trace.TaskState

// Task scheduling states (section 4 of the paper) plus the auxiliary
// lifecycle states displayed by the TimeLine tool.
const (
	StateCreated         = trace.StateCreated
	StateReady           = trace.StateReady
	StateRunning         = trace.StateRunning
	StateWaiting         = trace.StateWaiting
	StateWaitingResource = trace.StateWaitingResource
	StateTerminated      = trace.StateTerminated
)

// grantKind tells a task's driver waking on its TaskRun event which part of
// the dispatch overhead it must charge itself.
type grantKind uint8

const (
	grantNone grantKind = iota
	// grantLoad: the task was elected; charge the context-load duration and
	// start running.
	grantLoad
	// grantSchedLoad: fast idle-processor wakeup (procedural engine): charge
	// the scheduling duration first, then re-elect; if still elected, charge
	// the load and run, otherwise pass a grantLoad on to the elected task.
	grantSchedLoad
)

// TaskConfig carries the static parameters of a task.
type TaskConfig struct {
	// Priority is the task's fixed base priority; higher runs first under
	// the PriorityPreemptive policy.
	Priority int
	// StartAt delays the task's first release; zero starts it at the
	// beginning of the simulation.
	StartAt sim.Time
	// Period is scheduling metadata used by AssignRateMonotonic and the
	// periodic-task helper; zero for aperiodic tasks.
	Period sim.Time
	// Deadline is the task's relative deadline, used by the periodic-task
	// helper and the EDF policy; zero means none (ranks last under EDF).
	Deadline sim.Time
	// Jitter is the maximum release jitter of a periodic task: each cycle's
	// activation is delayed by a deterministic pseudo-random amount in
	// [0, Jitter] while its deadline stays anchored at the nominal release.
	// Must be smaller than the period.
	Jitter sim.Time
	// OnMiss selects the automatic recovery action taken when a cycle of a
	// periodic task misses its deadline; the default MissContinue takes
	// none. Ignored for aperiodic tasks.
	OnMiss MissPolicy
	// OnMissHook, when non-nil, is consulted at each deadline miss and
	// returns the recovery action to take, overriding OnMiss. It runs in
	// simulation context and must not block.
	OnMissHook func(MissInfo) MissPolicy
	// Affinity pins the task to one core of a multi-core processor under
	// DomainPartitioned (the default 0 is core 0, so single-core task sets
	// need no change). It must be a valid core index and must stay 0 under
	// DomainGlobal, where the scheduler places tasks freely.
	Affinity int
}

// Task is a software task scheduled by a Processor's RTOS model. Create
// tasks with Processor.NewTask before the simulation starts.
type Task struct {
	name string
	cpu  *Processor
	cfg  TaskConfig

	basePrio int
	boosts   []int // priority-inheritance stack (effective = max)

	deadline sim.Time // absolute deadline for EDF; TimeMax when unset
	period   sim.Time

	state    trace.TaskState
	readySeq uint64

	// affinity is the task's pinned core under DomainPartitioned (always 0
	// under DomainGlobal). lastCore is the core of the most recent dispatch
	// (-1 before the first one); a dispatch onto a different core is a
	// migration. claimedBy is the id of the idle core holding a claim on this
	// ready task, -1 when unclaimed (see schedcore.go).
	affinity  int
	lastCore  int
	claimedBy int

	// drv executes the task on a sim.Strand (engine_cont.go); co is the
	// coroutine of a Go body (cobody.go), unused for a Program body.
	drv contDriver
	co  coBody
	// evRun resumes the task's driver. It is both of the paper's task
	// events, TaskRun (a grant) and TaskPreempt (a preemption request):
	// the driver reads the cause from the task's flags.
	evRun sim.Event

	pendingGrant   grantKind
	grantCore      int // core the pending grant dispatches onto
	preemptPending bool
	noPreemptDepth int

	delayEvent *sim.Event // ends a timed sleep or a finite injected hang; lazily created

	ctx TaskCtx

	// Fault-injection and recovery state (fault.go, recovery.go).
	wcetFault      *WCETOverrun
	execSeq        uint64 // Execute occurrence counter for fault decisions
	inJob          bool   // a job (periodic cycle or one-shot body) is in flight
	abortPending   bool   // abandon the current job at the next checkpoint
	abortReason    string // recovery label recorded when the abort lands
	restartPending bool   // re-release immediately after the abort
	skipNext       bool   // skip the next periodic release
	hangPending    bool   // become stuck at the next Execute instant
	hangDur        sim.Time
	hung           bool // currently stuck in an injected hang

	// Aggregate counters, readable after the simulation.
	dispatches      uint64
	preemptions     uint64
	migrations      uint64
	cpuTime         sim.Time
	completedCycles uint64
	abortedCycles   uint64

	// Priority-inversion accounting (inversion.go); only maintained when the
	// processor has tracking enabled.
	invOpen  bool
	invSince sim.Time
	invMax   sim.Time
	invTotal sim.Time

	// Per-task observability instruments (metrics.go); registered by the
	// periodic-task helper, nil-safe otherwise. lastResp/hasResp feed the
	// cycle-to-cycle jitter histogram.
	metResp   *metrics.Histogram
	metJitter *metrics.Histogram
	metMisses *metrics.Counter
	lastResp  sim.Time
	hasResp   bool
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Processor returns the processor the task runs on.
func (t *Task) Processor() *Processor { return t.cpu }

// State returns the task's current scheduling state.
func (t *Task) State() trace.TaskState { return t.state }

// BasePriority returns the task's assigned priority.
func (t *Task) BasePriority() int { return t.basePrio }

// SetBasePriority changes the task's base priority; the scheduler is
// re-evaluated so a raised ready task may preempt the running one.
func (t *Task) SetBasePriority(p int) {
	t.basePrio = p
	if t.cpu != nil {
		t.cpu.invalidateReadyBest()
		t.cpu.reevaluate()
	}
}

// EffectivePriority returns the priority the scheduler sees: the base
// priority possibly raised by priority inheritance.
func (t *Task) EffectivePriority() int {
	p := t.basePrio
	for _, b := range t.boosts {
		if b > p {
			p = b
		}
	}
	return p
}

// Deadline returns the task's current absolute deadline (TimeMax if unset).
func (t *Task) Deadline() sim.Time { return t.deadline }

// Period returns the task's period metadata.
func (t *Task) Period() sim.Time { return t.period }

// Dispatches returns how many times the task was elected to run.
func (t *Task) Dispatches() uint64 { return t.dispatches }

// Preemptions returns how many times the task was preempted.
func (t *Task) Preemptions() uint64 { return t.preemptions }

// Migrations returns how many dispatches placed the task on a different core
// than its previous one (always zero under DomainPartitioned).
func (t *Task) Migrations() uint64 { return t.migrations }

// Affinity returns the core the task is pinned to under DomainPartitioned.
func (t *Task) Affinity() int { return t.affinity }

// CPUTime returns the total simulated processor time the task consumed.
func (t *Task) CPUTime() sim.Time { return t.cpuTime }

// CompletedCycles returns how many periodic cycles (or one-shot jobs) ran to
// completion.
func (t *Task) CompletedCycles() uint64 { return t.completedCycles }

// AbortedCycles returns how many jobs were abandoned by a recovery action
// (injected crash, deadline-miss policy, watchdog restart).
func (t *Task) AbortedCycles() uint64 { return t.abortedCycles }

// preemptible reports whether the task may currently be preempted.
func (t *Task) preemptible() bool {
	return t.cpu.preemptive && t.noPreemptDepth == 0
}

// setState records a state transition, tagged with the core of the task's
// most recent dispatch (0 before the first one).
func (t *Task) setState(s trace.TaskState) {
	t.state = s
	c := t.lastCore
	if c < 0 {
		c = 0
	}
	t.cpu.rec.TaskStateOn(t.name, t.cpu.name, c, s)
}

// grant elects the task onto core coreID: pendingGrant tells its driver what
// overhead to charge; the TaskRun event wakes it if it is already parked.
func (t *Task) grant(g grantKind, coreID int) {
	t.pendingGrant = g
	t.grantCore = coreID
	t.evRun.Notify()
}

// requestPreempt asks the running task to yield the processor. The flag
// survives until the task reaches a preemption point (inside an Execute);
// the event wakes its driver if it is inside one.
func (t *Task) requestPreempt() {
	t.preemptPending = true
	t.evRun.Notify()
}

// armDelayWake lazily creates the event (and wake method) that ends a
// sleep; also used by a finite injected hang.
func (t *Task) armDelayWake() *sim.Event {
	if t.delayEvent == nil {
		t.delayEvent = t.cpu.k.NewEvent(t.name + ".delay")
		t.cpu.k.NewMethod(t.name+".delayWake", func() {
			t.cpu.taskIsReady(t)
		}, false, t.delayEvent)
	}
	return t.delayEvent
}

// TaskCtx is the API a task behaviour uses to interact with the RTOS model:
// consume processor time, sleep, adjust priority and deadline, and toggle
// preemption. It also implements the comm.Actor contract so the task can use
// the communication relations of package comm.
//
// The blocking primitives (Execute, Delay, DelayUntil, SleepFor, Yield,
// Suspend) yield the matching op to the task's driver, so they may only be
// called from the task's own Go body, which runs as a coroutine. A Program
// step (ProgramBuilder.Do) runs in kernel context and must use yield ops
// instead; a blocking call there panics with the call's name.
type TaskCtx struct {
	t  *Task
	co *coBody // the task's body coroutine; nil for a Program body
}

// await yields y to the task's driver from inside the body coroutine and
// returns once the driver resumes the body: the op completed. A job abort
// requested meanwhile unwinds the body from here.
func (c *TaskCtx) await(call string, y Yield) {
	b := c.co
	if b != nil && b.closing {
		panic(coStop{})
	}
	if b == nil || !b.running {
		panic(fmt.Sprintf("rtos: %s called by task %q outside its Go body; a Program step runs in kernel context and must use yield ops", call, c.t.name))
	}
	if !b.yield(y) {
		panic(coStop{})
	}
	if b.aborting {
		b.aborting = false
		panic(jobAborted{})
	}
}

// Task returns the underlying task.
func (c *TaskCtx) Task() *Task { return c.t }

// Name returns the task name (also the comm.Actor name).
func (c *TaskCtx) Name() string { return c.t.name }

// Priority returns the task's effective priority (comm.Actor contract).
func (c *TaskCtx) Priority() int { return c.t.EffectivePriority() }

// Now returns the current simulated time.
func (c *TaskCtx) Now() sim.Time { return c.t.cpu.k.Now() }

// Kernel returns the simulation kernel.
func (c *TaskCtx) Kernel() *sim.Kernel { return c.t.cpu.k }

// Recorder returns the trace recorder (comm.Actor contract).
func (c *TaskCtx) Recorder() *trace.Recorder { return c.t.cpu.rec }

// Execute consumes d of processor time. This is the paper's time-annotated
// processing: the task occupies the processor for a total of d, but may be
// preempted at any instant in between; the remaining duration is recomputed
// exactly at the preemption instant (the TaskIsPreempted behaviour of
// section 4.2), so the model's preemption accuracy does not depend on any
// clock resolution.
func (c *TaskCtx) Execute(d sim.Time) { c.await("Execute", Compute(d)) }

// Delay suspends the task for duration d (Waiting state): the task does not
// use the processor and becomes ready again when the delay expires.
func (c *TaskCtx) Delay(d sim.Time) { c.await("Delay", WaitFor(d)) }

// SleepFor suspends the task for d without using the processor; it makes
// TaskCtx satisfy the bus.Sleeper contract (a DMA-style transfer frees the
// CPU).
func (c *TaskCtx) SleepFor(d sim.Time) { c.Delay(d) }

// DelayUntil suspends the task until absolute simulated time at; it returns
// immediately if at is not in the future.
func (c *TaskCtx) DelayUntil(at sim.Time) {
	if d := at - c.Now(); d > 0 {
		c.Delay(d)
	}
}

// Yield voluntarily releases the processor: the task returns to the ready
// queue and the scheduler elects the next task (possibly this one again).
func (c *TaskCtx) Yield() { c.await("Yield", YieldCPU()) }

// SetPriority changes the task's base priority at run time.
func (c *TaskCtx) SetPriority(p int) { c.t.SetBasePriority(p) }

// SetDeadline sets the task's absolute deadline (for the EDF policy).
func (c *TaskCtx) SetDeadline(at sim.Time) {
	c.t.deadline = at
	c.t.cpu.invalidateReadyBest()
	c.t.cpu.reevaluate()
}

// SetDeadlineIn sets the task's deadline relative to the current time.
func (c *TaskCtx) SetDeadlineIn(d sim.Time) { c.SetDeadline(c.Now() + d) }

// DisablePreemption enters a critical region during which the task cannot
// be preempted (paper section 3.1: "the preemptive/non-preemptive mode can
// be changed during the simulation. This enables to model critical regions
// during which task preemption is not allowed"). Calls nest.
func (c *TaskCtx) DisablePreemption() { c.t.noPreemptDepth++ }

// EnablePreemption leaves a critical region opened by DisablePreemption.
// If a preemption request arrived meanwhile it takes effect at the task's
// next preemption point.
func (c *TaskCtx) EnablePreemption() {
	t := c.t
	if t.noPreemptDepth == 0 {
		panic("rtos: EnablePreemption without matching DisablePreemption")
	}
	t.noPreemptDepth--
	if t.noPreemptDepth == 0 {
		t.cpu.reevaluate()
	}
}

// Suspend blocks the task on an external condition (comm.Actor contract):
// resource selects the WaitingResource state (mutual exclusion) over the
// plain Waiting state. The caller has already registered the task as a
// waiter of object; the call returns when some actor calls Resume and the
// scheduler elects the task again.
func (c *TaskCtx) Suspend(resource bool, object string) {
	c.await("Suspend", Yield{kind: yieldSuspend, resource: resource, object: object})
}

// Resume makes a suspended task ready again (comm.Actor contract). It is
// safe to call from any simulation context (another task, a hardware
// process, a sim.Method) and never consumes the caller's simulated time.
func (c *TaskCtx) Resume() { c.t.cpu.taskIsReady(c.t) }

// BoostPriority raises the task's effective priority to at least p
// (priority-inheritance support for comm.Mutex).
func (c *TaskCtx) BoostPriority(p int) {
	c.t.boosts = append(c.t.boosts, p)
	c.t.cpu.invalidateReadyBest()
	c.t.cpu.reevaluate()
}

// UnboostPriority undoes the most recent BoostPriority.
func (c *TaskCtx) UnboostPriority() {
	n := len(c.t.boosts)
	if n == 0 {
		panic("rtos: UnboostPriority without matching BoostPriority")
	}
	c.t.boosts = c.t.boosts[:n-1]
	c.t.cpu.invalidateReadyBest()
	c.t.cpu.reevaluate()
}
