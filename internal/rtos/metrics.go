package rtos

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file wires the RTOS model into the metrics registry. All instruments
// are registered at construction time (NewProcessor, NewPeriodicTask); the
// scheduling hot paths only ever increment pre-registered instruments, so
// metrics collection preserves the zero-allocations-per-context-switch
// guarantee pinned by the AllocsPerRun regression tests.
//
// Naming follows the Prometheus conventions: `_total` counters, `_ps`
// suffixes for picosecond-valued time metrics, labels for the processor
// (cpu), core and task dimensions.

// procMetrics bundles one processor's instruments.
type procMetrics struct {
	elections   *metrics.Counter // successful policy elections
	dispatches  *metrics.Counter // completed dispatches (== context switches onto a core)
	preemptions *metrics.Counter // Running -> Ready transitions
	migrations  *metrics.Counter // dispatches onto a different core than the last one
	ctxSwitches *metrics.Counter // context-load charges (the trace.Stats definition)
	misses      *metrics.Counter // periodic deadline misses

	// overhead accumulates charged RTOS time in ps, indexed by
	// trace.OverheadKind (context-save, scheduling, context-load).
	overhead [3]*metrics.Counter

	// inversion accumulates priority-inversion time in ps across the
	// processor's tasks; only advanced with inversion tracking enabled.
	inversion *metrics.Counter

	// contResumes counts task-driver strand resumes (engine_cont.go): the
	// task side's analogue of thread activations.
	contResumes *metrics.Counter

	// readyDepth tracks the number of ready tasks across all queues; its
	// high-water mark is the worst ready-queue backlog of the run.
	readyDepth *metrics.Gauge

	// coreBusy accumulates application execution time per core in ps.
	coreBusy []*metrics.Counter
}

// registerMetrics creates the processor's instruments on the system
// registry. A nil registry yields nil (no-op) instruments.
func (cpu *Processor) registerMetrics(reg *metrics.Registry) {
	lcpu := metrics.L("cpu", cpu.name)
	cpu.met.elections = reg.Counter("rtos_elections_total",
		"scheduling-policy elections that selected a task", lcpu)
	cpu.met.dispatches = reg.Counter("rtos_dispatches_total",
		"completed task dispatches", lcpu)
	cpu.met.preemptions = reg.Counter("rtos_preemptions_total",
		"running tasks preempted back to the ready queue", lcpu)
	cpu.met.migrations = reg.Counter("rtos_migrations_total",
		"dispatches that moved a task to a different core", lcpu)
	cpu.met.ctxSwitches = reg.Counter("rtos_context_switches_total",
		"context switches (context-load overhead charges)", lcpu)
	cpu.met.misses = reg.Counter("rtos_deadline_misses_total",
		"periodic-task deadline misses", lcpu)
	for _, kind := range []trace.OverheadKind{
		trace.OverheadContextSave, trace.OverheadScheduling, trace.OverheadContextLoad,
	} {
		cpu.met.overhead[kind] = reg.Counter("rtos_overhead_time_ps_total",
			"RTOS overhead time charged, by kind", lcpu, metrics.L("kind", kind.String()))
	}
	cpu.met.inversion = reg.Counter("rtos_inversion_time_ps_total",
		"priority-inversion time accumulated across tasks (needs inversion tracking)", lcpu)
	cpu.met.contResumes = reg.Counter("rtos_continuation_resumes_total",
		"continuation task driver resumes run inline in the kernel", lcpu)
	cpu.met.readyDepth = reg.Gauge("rtos_ready_depth",
		"tasks in the ready queue(s); high-water is the worst backlog", lcpu)
	cpu.met.coreBusy = make([]*metrics.Counter, len(cpu.cores))
	for i := range cpu.cores {
		cpu.met.coreBusy[i] = reg.Counter("rtos_core_busy_time_ps_total",
			"application execution time per core", lcpu, metrics.L("core", strconv.Itoa(i)))
	}
}

// registerTaskMetrics creates a periodic task's response-time and jitter
// histograms plus its per-task miss counter.
func (t *Task) registerTaskMetrics(reg *metrics.Registry) {
	lcpu := metrics.L("cpu", t.cpu.name)
	ltask := metrics.L("task", t.name)
	t.metResp = reg.Histogram("rtos_task_response_time_ps",
		"periodic-cycle response time (completion minus nominal release)",
		metrics.TimeBuckets(), lcpu, ltask)
	t.metJitter = reg.Histogram("rtos_task_jitter_ps",
		"absolute difference between consecutive cycle response times",
		metrics.TimeBuckets(), lcpu, ltask)
	t.metMisses = reg.Counter("rtos_task_deadline_misses_total",
		"deadline misses of this task", lcpu, ltask)
}

// observeResponse records one completed periodic cycle's response time and
// the jitter against the previous cycle.
func (t *Task) observeResponse(resp sim.Time) {
	t.metResp.Observe(int64(resp))
	if t.hasResp {
		d := int64(resp - t.lastResp)
		if d < 0 {
			d = -d
		}
		t.metJitter.Observe(d)
	}
	t.lastResp, t.hasResp = resp, true
}

// OverheadTime returns the total RTOS overhead time charged on the processor
// so far (scheduling + context save + context load), from the metrics layer.
func (cpu *Processor) OverheadTime() sim.Time {
	var total uint64
	for _, c := range cpu.met.overhead {
		total += c.Value()
	}
	return sim.Time(total)
}

// CoreBusyTime returns the application execution time charged on one core so
// far, from the metrics layer.
func (cpu *Processor) CoreBusyTime(coreID int) sim.Time {
	return sim.Time(cpu.met.coreBusy[coreID].Value())
}

// DeadlineMisses returns the number of periodic deadline misses detected on
// this processor so far, from the metrics layer.
func (cpu *Processor) DeadlineMisses() uint64 { return cpu.met.misses.Value() }

// ReadyHighWater returns the worst ready-queue backlog observed on this
// processor, from the metrics layer.
func (cpu *Processor) ReadyHighWater() int { return int(cpu.met.readyDepth.HighWater()) }
