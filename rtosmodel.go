// Package rtosmodel is the public facade of the generic RTOS simulation
// model, a reproduction of "A Generic RTOS Model for Real-time Systems
// Simulation with SystemC" (Le Moigne, Pasquier, Calvez — DATE 2004) in pure
// Go.
//
// The library simulates real-time hardware/software systems at a high
// abstraction level: software tasks serialized on processors by a
// parameterizable RTOS model (scheduling policy, preemptive/non-preemptive
// mode, and the three RTOS overhead durations — scheduling, context save,
// context load — as fixed values or formulas over the simulated system
// state), co-simulated with truly parallel hardware tasks, all communicating
// through MCSE relations (events, message queues, shared variables).
//
// A minimal system:
//
//	sys := rtosmodel.NewSystem()
//	cpu := sys.NewProcessor("cpu0", rtosmodel.Config{
//		Policy:    rtosmodel.PriorityPreemptive{},
//		Overheads: rtosmodel.UniformOverheads(5 * rtosmodel.Us),
//	})
//	irq := rtosmodel.NewEvent(sys.Rec, "irq", rtosmodel.Boolean)
//	cpu.NewTask("handler", rtosmodel.TaskConfig{Priority: 10}, func(c *rtosmodel.TaskCtx) {
//		irq.Wait(c)
//		c.Execute(40 * rtosmodel.Us)
//	})
//	sys.NewHWTask("device", rtosmodel.HWConfig{}, func(c *rtosmodel.HWCtx) {
//		c.Wait(300 * rtosmodel.Us)
//		irq.Signal(c)
//	})
//	sys.Run()
//	fmt.Print(sys.Stats(0))
//
// The facade re-exports the stable surface of the internal packages:
//
//   - internal/sim — the discrete-event kernel (SystemC 2.0 semantics);
//   - internal/rtos — the RTOS model itself, the paper's contribution;
//   - internal/comm — the MCSE communication relations;
//   - internal/trace — timeline, statistics, CSV/VCD export;
//   - internal/scenario — JSON system descriptions.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results. The benchmark harness regenerating every figure of
// the paper's evaluation lives next to this file in bench_test.go.
package rtosmodel

import (
	"repro/internal/analysis"
	"repro/internal/bus"
	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/rtos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Simulated time: sim.Time in picoseconds with unit constants.
type (
	// Time is a simulated instant or duration in picoseconds.
	Time = sim.Time
	// Kernel is the discrete-event simulation kernel.
	Kernel = sim.Kernel
	// Proc is a raw kernel process (hardware-level modelling).
	Proc = sim.Proc
	// KernelEvent is a raw kernel event (sc_event analogue); for RTOS-aware
	// synchronization between tasks use Event instead.
	KernelEvent = sim.Event
	// Clock generates a periodic kernel event.
	Clock = sim.Clock
	// Method is a callback run inline by the kernel when its sensitivity
	// events fire (sc_method analogue) — no goroutine, no stack.
	Method = sim.Method
)

// Duration units.
const (
	Ps  = sim.Ps
	Ns  = sim.Ns
	Us  = sim.Us
	Ms  = sim.Ms
	Sec = sim.Sec
)

// Signal is a hardware wire/register with evaluate/update semantics.
type Signal[T comparable] = sim.Signal[T]

// NewSignal creates a signal on kernel k with an initial value.
func NewSignal[T comparable](k *Kernel, name string, initial T) *Signal[T] {
	return sim.NewSignal(k, name, initial)
}

// The RTOS model (the paper's contribution).
type (
	// System bundles kernel, recorder, processors, hardware tasks and the
	// timing-constraint monitor.
	System = rtos.System
	// Processor is a CPU whose tasks are serialized by the RTOS model.
	Processor = rtos.Processor
	// Config parameterizes a processor's RTOS.
	Config = rtos.Config
	// EngineKind selects the RTOS model implementation (paper section 4).
	EngineKind = rtos.EngineKind
	// SchedDomain selects how a multi-core processor distributes its tasks
	// (Config.Domain): partitioned per-core queues or one global queue.
	SchedDomain = rtos.SchedDomain
	// Migration is one recorded task move between cores.
	Migration = trace.Migration
	// Task is a software task.
	Task = rtos.Task
	// TaskConfig carries a task's static parameters.
	TaskConfig = rtos.TaskConfig
	// TaskCtx is the API a task behaviour uses.
	TaskCtx = rtos.TaskCtx
	// Continuation is a resumable task body executed inline by the kernel:
	// the hand-written form of a body, with no coroutine and no retained
	// stack. See Processor.NewContTask / NewPeriodicContTask.
	Continuation = rtos.Continuation
	// Yield is one typed suspension request returned by a Continuation.
	Yield = rtos.Yield
	// Program is a flat yield-op Continuation with counted/infinite loops.
	Program = rtos.Program
	// ProgramBuilder assembles a Program with a chain API.
	ProgramBuilder = rtos.ProgramBuilder
	// HWTask is a hardware task (not scheduled by any RTOS).
	HWTask = rtos.HWTask
	// HWConfig carries a hardware task's static parameters.
	HWConfig = rtos.HWConfig
	// HWCtx is the API a hardware behaviour uses.
	HWCtx = rtos.HWCtx
	// Policy is the pluggable scheduling policy interface.
	Policy = rtos.Policy
	// QuantumPolicy is a time-sharing policy with a quantum.
	QuantumPolicy = rtos.QuantumPolicy
	// PriorityPreemptive is fixed-priority preemptive scheduling.
	PriorityPreemptive = rtos.PriorityPreemptive
	// FIFO is first-come-first-served non-preemptive scheduling.
	FIFO = rtos.FIFO
	// RoundRobin is FIFO plus a time-slice quantum.
	RoundRobin = rtos.RoundRobin
	// EDF is earliest-deadline-first scheduling.
	EDF = rtos.EDF
	// Overheads bundles the three RTOS overhead parameters.
	Overheads = rtos.Overheads
	// OverheadFn computes an overhead duration from the system state.
	OverheadFn = rtos.OverheadFn
	// OverheadCtx is the state visible to an overhead formula.
	OverheadCtx = rtos.OverheadCtx
	// Constraint is a latency timing constraint.
	Constraint = rtos.Constraint
	// ConstraintSet verifies timing constraints during simulation.
	ConstraintSet = rtos.ConstraintSet
	// Violation is one recorded timing-constraint violation.
	Violation = rtos.Violation
	// InterruptController models a processor's interrupt hardware.
	InterruptController = rtos.InterruptController
	// IRQ is one interrupt line.
	IRQ = rtos.IRQ
	// ISRCtx is the API available inside an interrupt service routine.
	ISRCtx = rtos.ISRCtx
	// Server is an aperiodic server (polling or deferrable).
	Server = rtos.Server
	// ServerConfig carries an aperiodic server's parameters.
	ServerConfig = rtos.ServerConfig
	// AperiodicJob is one unit of aperiodic work for a Server.
	AperiodicJob = rtos.AperiodicJob
)

// Fault injection, recovery and failure diagnosis.
type (
	// WCETOverrun describes a worst-case-execution-time inflation fault
	// for Task.InjectWCETOverrun.
	WCETOverrun = rtos.WCETOverrun
	// MissPolicy selects a task's deadline-miss recovery action.
	MissPolicy = rtos.MissPolicy
	// MissInfo describes one deadline miss to an OnMissHook.
	MissInfo = rtos.MissInfo
	// Watchdog is a per-processor watchdog timer (kick or it fires).
	Watchdog = rtos.Watchdog
	// FinishReason tells why a run returned (quiescent, deadlock, ...).
	FinishReason = sim.FinishReason
	// SimReport summarizes a checked run.
	SimReport = sim.Report
	// SimError is the structured failure a RunChecked call returns.
	SimError = sim.SimError
	// BlockedProc names one process blocked forever and its wait object.
	BlockedProc = sim.BlockedProc
	// FaultRecord is one recorded fault/recovery/watchdog trace event.
	FaultRecord = trace.FaultRecord
	// FaultMetrics summarizes a run's fault-tolerance behaviour.
	FaultMetrics = analysis.FaultMetrics
)

// Deadline-miss recovery policies (TaskConfig.OnMiss).
const (
	MissContinue        = rtos.MissContinue
	MissAbortJob        = rtos.MissAbortJob
	MissSkipNextRelease = rtos.MissSkipNextRelease
	MissRestartTask     = rtos.MissRestartTask
)

// Finish reasons reported by System.FinishReason and SimReport.Reason.
const (
	FinishQuiescent = sim.FinishQuiescent
	FinishDeadlock  = sim.FinishDeadlock
	FinishLimit     = sim.FinishLimit
	FinishStopped   = sim.FinishStopped
	FinishPanic     = sim.FinishPanic
)

// Fault trace event kinds (FaultRecord.Kind).
const (
	FaultInjected = trace.FaultInjected
	RecoveryTaken = trace.RecoveryTaken
	WatchdogFired = trace.WatchdogFired
)

// ComputeFaultMetrics derives miss-rate, recovery-latency and degraded-mode
// metrics from recorded fault events (typically sys.Rec.FaultEvents()).
func ComputeFaultMetrics(events []FaultRecord, horizon Time) FaultMetrics {
	return analysis.ComputeFaultMetrics(events, horizon)
}

// Observability: the metrics registry every System carries (sys.Metrics) and
// its frozen snapshot form. Export helpers live on System —
// MetricsSnapshot, WriteMetricsJSON, WriteMetricsPrometheus and
// WritePerfetto (Perfetto/Chrome trace_event JSON).
type (
	// MetricsRegistry holds the named counters, gauges and histograms a
	// simulation records into (allocation-free on the hot paths).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a frozen, exportable copy of a registry's state.
	MetricsSnapshot = metrics.Snapshot
)

// RTOS engine kinds.
const (
	// EngineProcedural integrates the RTOS into the task state transitions
	// (paper section 4.2, the efficient default).
	EngineProcedural = rtos.EngineProcedural
	// EngineThreaded uses a dedicated RTOS scheduler thread (section 4.1).
	EngineThreaded = rtos.EngineThreaded
)

// Multi-core scheduling domains (Config.Domain, meaningful with Config.Cores
// greater than one).
const (
	// DomainPartitioned pins each task to its TaskConfig.Affinity core with a
	// private per-core ready queue; with one core it is exactly the paper's
	// single-CPU model.
	DomainPartitioned = rtos.DomainPartitioned
	// DomainGlobal shares one ready queue across all cores; tasks migrate and
	// each migration is counted and traced.
	DomainGlobal = rtos.DomainGlobal
)

// NewSystem creates an empty system with tracing enabled.
func NewSystem() *System { return rtos.NewSystem() }

// NewUntracedSystem creates a system with tracing disabled, for long
// simulations where the trace would grow without bound.
func NewUntracedSystem() *System { return rtos.NewUntracedSystem() }

// Fixed returns a constant overhead duration.
func Fixed(d Time) OverheadFn { return rtos.Fixed(d) }

// PerReadyTask returns the overhead formula base + slope·readyCount.
func PerReadyTask(base, slope Time) OverheadFn { return rtos.PerReadyTask(base, slope) }

// FixedOverheads builds Overheads from three constant durations.
func FixedOverheads(scheduling, save, load Time) Overheads {
	return rtos.FixedOverheads(scheduling, save, load)
}

// UniformOverheads sets all three RTOS durations to d.
func UniformOverheads(d Time) Overheads { return rtos.UniformOverheads(d) }

// AssignRateMonotonic assigns fixed priorities by the rate-monotonic rule.
func AssignRateMonotonic(tasks ...*Task) { rtos.AssignRateMonotonic(tasks...) }

// BuildProgram starts a chain-API builder for a continuation Program.
func BuildProgram() *ProgramBuilder { return rtos.BuildProgram() }

// Compute yields a preemptible CPU consumption of duration d.
func Compute(d Time) Yield { return rtos.Compute(d) }

// ComputeFn yields a CPU consumption whose duration fn computes at resume.
func ComputeFn(fn func(*TaskCtx) Time) Yield { return rtos.ComputeFn(fn) }

// WaitFor yields a relative sleep (the delay service).
func WaitFor(d Time) Yield { return rtos.WaitFor(d) }

// YieldCPU yields the processor to equal-priority peers.
func YieldCPU() Yield { return rtos.YieldCPU() }

// Finish yields job completion (also the Yield zero value).
func Finish() Yield { return rtos.Finish() }

// WaitOn yields a blocking wait on an event relation.
func WaitOn(e *Event) Yield { return rtos.WaitOn(e) }

// LockMutex yields a blocking mutex acquisition (Unlock is non-blocking: use
// ProgramBuilder.Unlock or a Do step).
func LockMutex(m *Mutex) Yield { return rtos.LockMutex(m) }

// PutMsg yields a blocking send of v into q.
func PutMsg[T any](q *Queue[T], v T) Yield { return rtos.PutMsg(q, v) }

// GetMsg yields a blocking receive from q into dst (nil discards).
func GetMsg[T any](q *Queue[T], dst *T) Yield { return rtos.GetMsg(q, dst) }

// MCSE communication relations.
type (
	// Actor is anything that can block on and wake through relations.
	Actor = comm.Actor
	// Event is a synchronization relation with a memorization policy.
	Event = comm.Event
	// EventPolicy selects fugitive, boolean or counter memorization.
	EventPolicy = comm.EventPolicy
	// Mutex is a mutual-exclusion lock with a priority-ordered wait queue.
	Mutex = comm.Mutex
)

// Queue is a bounded message queue (producer/consumer relation).
type Queue[T any] = comm.Queue[T]

// Shared is a shared variable protected by mutual exclusion.
type Shared[T any] = comm.Shared[T]

// Event memorization policies.
const (
	Fugitive = comm.Fugitive
	Boolean  = comm.Boolean
	Counter  = comm.Counter
)

// NewEvent creates an event relation; rec is typically sys.Rec.
func NewEvent(rec *Recorder, name string, policy EventPolicy) *Event {
	return comm.NewEvent(rec, name, policy)
}

// NewQueue creates a bounded message queue.
func NewQueue[T any](rec *Recorder, name string, capacity int) *Queue[T] {
	return comm.NewQueue[T](rec, name, capacity)
}

// NewShared creates a shared variable.
func NewShared[T any](rec *Recorder, name string, initial T) *Shared[T] {
	return comm.NewShared(rec, name, initial)
}

// NewInheritShared creates a shared variable whose lock applies the
// priority-inheritance protocol.
func NewInheritShared[T any](rec *Recorder, name string, initial T) *Shared[T] {
	return comm.NewInheritShared(rec, name, initial)
}

// NewMutex creates a mutual-exclusion lock.
func NewMutex(rec *Recorder, name string) *Mutex { return comm.NewMutex(rec, name) }

// NewInheritMutex creates a lock applying the priority-inheritance protocol.
func NewInheritMutex(rec *Recorder, name string) *Mutex { return comm.NewInheritMutex(rec, name) }

// NewCeilingMutex creates a lock applying the immediate priority-ceiling
// protocol.
func NewCeilingMutex(rec *Recorder, name string, ceiling int) *Mutex {
	return comm.NewCeilingMutex(rec, name, ceiling)
}

// Shared interconnect modelling (the "communications network" dimension).
type (
	// Bus is a shared, serialized transfer medium with priority arbitration.
	Bus = bus.Bus
	// BusConfig carries a bus's physical parameters.
	BusConfig = bus.Config
)

// BusChannel is a typed message queue whose Send pays for the transfer on a
// shared bus.
type BusChannel[T any] = bus.Channel[T]

// NewBus creates a shared transfer medium; rec is typically sys.Rec.
func NewBus(rec *Recorder, name string, cfg BusConfig) *Bus { return bus.New(rec, name, cfg) }

// NewBusChannel creates a typed channel of the given capacity over a bus.
func NewBusChannel[T any](b *Bus, name string, capacity int, size func(T) int) *BusChannel[T] {
	return bus.NewChannel(b, name, capacity, size)
}

// Tracing, timeline and statistics.
type (
	// Recorder accumulates the execution trace.
	Recorder = trace.Recorder
	// TimelineOptions configures the ASCII TimeLine renderer.
	TimelineOptions = trace.TimelineOptions
	// Stats is the statistics report (the paper's Figure 8 view).
	Stats = trace.Stats
	// TaskStats is one task's time distribution.
	TaskStats = trace.TaskStats
	// TaskState is a task scheduling state.
	TaskState = trace.TaskState
)

// ParseScenario decodes and validates a JSON system description (see
// internal/scenario for the format).
func ParseScenario(data []byte) (*ScenarioSystem, error) { return scenario.Parse(data) }

// ScenarioSystem is a declarative system description.
type ScenarioSystem = scenario.System

// ParseDuration parses "5us", "1.5ms", "250ns" into a Time.
func ParseDuration(s string) (Time, error) { return scenario.ParseDuration(s) }

// Schedulability analysis (cross-validated against the simulation).
type (
	// AnalysisTask describes a periodic task for schedulability analysis.
	AnalysisTask = analysis.TaskSpec
	// RTAResult is the outcome of a response-time analysis.
	RTAResult = analysis.RTAResult
)

// TaskSetUtilization returns the total utilization sum(C/T).
func TaskSetUtilization(tasks []AnalysisTask) float64 { return analysis.Utilization(tasks) }

// LiuLaylandBound returns the RM utilization bound n(2^(1/n)-1).
func LiuLaylandBound(n int) float64 { return analysis.LiuLaylandBound(n) }

// AssignRMSpecs returns a copy of the set with rate-monotonic priorities.
func AssignRMSpecs(tasks []AnalysisTask) []AnalysisTask { return analysis.AssignRM(tasks) }

// ResponseTimes performs exact response-time analysis for fixed-priority
// preemptive scheduling with an optional per-switch overhead.
func ResponseTimes(tasks []AnalysisTask, switchOverhead Time) (RTAResult, error) {
	return analysis.ResponseTimes(tasks, switchOverhead)
}

// EDFSchedulable applies the exact processor-demand test for EDF.
func EDFSchedulable(tasks []AnalysisTask) (bool, error) { return analysis.EDFSchedulable(tasks) }

// SchedulabilityReport renders the analytical verdicts for a task set.
func SchedulabilityReport(tasks []AnalysisTask, switchOverhead Time) string {
	return analysis.Report(tasks, switchOverhead)
}

// CoreLoad is one core's load share extracted from a multi-core trace.
type CoreLoad = analysis.CoreLoad

// CoreLoads computes per-core utilization and migration counts from a
// recorded trace (typically sys.Rec) over [0, end]; end zero uses the
// trace's natural end.
func CoreLoads(rec *Recorder, end Time) []CoreLoad { return analysis.CoreLoads(rec, end) }

// PartitionFirstFit packs a task set onto m cores (first-fit decreasing)
// under a per-core utilization bound; nil bound means 1.0 (per-core EDF).
func PartitionFirstFit(tasks []AnalysisTask, m int, bound func(coreTasks int) float64) (analysis.Partition, error) {
	return analysis.PartitionFirstFit(tasks, m, bound)
}

// GlobalEDFSchedulable applies the Goossens-Funk-Baruah sufficient
// utilization bound for global EDF on m identical cores.
func GlobalEDFSchedulable(tasks []AnalysisTask, m int) (bool, error) {
	return analysis.GlobalEDFSchedulable(tasks, m)
}
