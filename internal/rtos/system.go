package rtos

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// System bundles a simulation kernel, a trace recorder, the processors with
// their RTOS models, the hardware tasks, and a timing-constraint monitor —
// everything needed to model and simulate one real-time system.
type System struct {
	// K is the discrete-event kernel driving the simulation.
	K *sim.Kernel
	// Rec records the execution trace (timeline, overheads, statistics):
	// it folds the statistics online and, unless told otherwise with
	// Rec.SetStore(false), stores the records the renderers read.
	Rec *trace.Recorder
	// Constraints verifies timing constraints during the simulation (the
	// paper's section 6 "automatic verification of timing constraints by
	// simulation", implemented here).
	Constraints *ConstraintSet
	// Metrics is the always-on observability registry: kernel effort
	// counters, scheduler election/dispatch/preemption/migration counts,
	// overhead time by kind, ready-queue high-water, per-core busy time and
	// per-task response/jitter histograms. Unlike the trace it is bounded —
	// a fixed set of instruments regardless of run length — so it stays on
	// even for untraced systems, and recording into it never allocates.
	Metrics *metrics.Registry

	cpus []*Processor
	hws  []*HWTask

	// jitterHook, when set, decides every periodic release's jitter instead
	// of the deterministic default (see SetReleaseJitterHook).
	jitterHook func(task string, cycle int, max sim.Time) sim.Time
}

// NewSystem creates an empty system with tracing and metrics enabled.
func NewSystem() *System {
	k := sim.New()
	s := &System{K: k, Rec: trace.NewRecorder(k.Now), Metrics: metrics.NewRegistry()}
	s.init()
	return s
}

// NewUntracedSystem creates a system with tracing disabled (Rec is nil,
// which every trace call accepts as a no-op). Use it for long simulations
// and benchmarks where the trace would grow without bound; Stats and the
// renderers return empty results. Metrics stay enabled: the registry is
// bounded and allocation-free on the record path.
func NewUntracedSystem() *System {
	s := &System{K: sim.New(), Metrics: metrics.NewRegistry()}
	s.init()
	return s
}

func (s *System) init() {
	s.Constraints = &ConstraintSet{sys: s}
	s.K.SetDiagnostic(s.diagnostic)
	s.K.SetMetrics(s.Metrics)
}

// diagnostic produces the RTOS-level context lines attached to a
// sim.SimError: what each processor was doing when the failure was detected.
func (s *System) diagnostic() []string {
	var out []string
	describe := func(c *core) string {
		switch {
		case c.running != nil:
			return "running " + c.running.name
		case c.switching:
			return "context-switching"
		}
		return "idle"
	}
	for _, cpu := range s.cpus {
		doing := describe(&cpu.cores[0])
		for i := 1; i < len(cpu.cores); i++ {
			doing += fmt.Sprintf("; core%d %s", i, describe(&cpu.cores[i]))
		}
		if ic := cpu.irqCtrl; ic != nil && ic.active != nil {
			doing += ", in ISR " + ic.active.name
		}
		out = append(out, fmt.Sprintf("cpu %s [%s/%s]: %s, %d ready",
			cpu.name, cpu.engineKind, cpu.policy.Name(), doing, cpu.ReadyCount()))
	}
	return out
}

// Run simulates until no further activity is possible, then shuts the
// kernel down.
func (s *System) Run() { s.K.Run() }

// RunUntil simulates until absolute time t; the simulation can be continued
// afterwards. Call Shutdown when done.
func (s *System) RunUntil(t sim.Time) { s.K.RunUntil(t) }

// RunFor simulates for duration d of simulated time.
func (s *System) RunFor(d sim.Time) { s.K.RunFor(d) }

// RunChecked simulates until absolute time limit (pass sim.TimeMax to run to
// exhaustion), recovering model panics and reporting deadlock/starvation as
// a structured *sim.SimError with per-processor context. Call Shutdown when
// done.
func (s *System) RunChecked(limit sim.Time) (sim.Report, error) { return s.K.RunChecked(limit) }

// FinishReason reports why the most recent run returned: quiescent,
// deadlock, limit, stopped or panic.
func (s *System) FinishReason() sim.FinishReason { return s.K.FinishReason() }

// Shutdown unwinds all simulation processes.
func (s *System) Shutdown() { s.K.Shutdown() }

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.K.Now() }

// Processors returns the system's processors in creation order.
func (s *System) Processors() []*Processor { return s.cpus }

// HWTasks returns the system's hardware tasks in creation order.
func (s *System) HWTasks() []*HWTask { return s.hws }

// Stats computes the trace statistics over [0, end]; end zero means the end
// of the recorded trace. This is the analogue of the paper's Figure 8 view.
func (s *System) Stats(end sim.Time) trace.Stats { return s.Rec.ComputeStats(end) }

// Timeline renders the ASCII TimeLine chart, the analogue of the paper's
// Figures 6 and 7.
func (s *System) Timeline(opts trace.TimelineOptions) string { return s.Rec.RenderTimeline(opts) }

// Chronology renders the lossless chronological event listing.
func (s *System) Chronology() string { return s.Rec.RenderChronology() }

// WriteCSV exports the trace as CSV.
func (s *System) WriteCSV(w io.Writer) error { return s.Rec.WriteCSV(w) }

// WriteVCD exports the trace as a Value Change Dump waveform.
func (s *System) WriteVCD(w io.Writer) error { return s.Rec.WriteVCD(w) }

// WriteJSON exports the trace as a JSON document.
func (s *System) WriteJSON(w io.Writer) error { return s.Rec.WriteJSON(w) }

// WriteSVG exports the TimeLine chart as an SVG image.
func (s *System) WriteSVG(w io.Writer, opts trace.SVGOptions) error {
	return s.Rec.WriteSVG(w, opts)
}

// MetricsSnapshot freezes the current state of the metrics registry. Safe to
// take mid-run, between Run steps.
func (s *System) MetricsSnapshot() metrics.Snapshot { return s.Metrics.Snapshot() }

// WriteMetricsJSON exports the metrics registry as a JSON document.
func (s *System) WriteMetricsJSON(w io.Writer) error { return s.Metrics.WriteJSON(w) }

// WriteMetricsPrometheus exports the metrics registry in the Prometheus text
// exposition format.
func (s *System) WriteMetricsPrometheus(w io.Writer) error { return s.Metrics.WritePrometheus(w) }

// WritePerfetto exports the trace in the Perfetto/Chrome trace_event JSON
// format (one track per core, slices for task execution and RTOS overhead,
// instant markers for faults, deadline misses and migrations), openable at
// ui.perfetto.dev. Deadline misses come from the constraint monitor.
func (s *System) WritePerfetto(w io.Writer) error {
	opts := trace.PerfettoOptions{Misses: s.Constraints.PerfettoMisses()}
	return s.Rec.WritePerfetto(w, opts)
}

// SetReleaseJitterHook installs (or, with nil, removes) the function that
// decides each periodic release's jitter. The hook is consulted for every
// release of a task with a non-zero jitter bound and must return a value in
// [0, max]; with none installed the deterministic DefaultReleaseJitter
// applies. This is the RTOS model's second schedule-exploration choice point
// (the first is the kernel's same-instant tie-break, sim.TimedPermuter).
func (s *System) SetReleaseJitterHook(fn func(task string, cycle int, max sim.Time) sim.Time) {
	s.jitterHook = fn
}

// releaseJitterFor resolves one release's jitter: the hook's choice when one
// is installed, the deterministic default otherwise.
func (s *System) releaseJitterFor(task string, cycle int, max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	if s.jitterHook == nil {
		return releaseJitter(task, cycle, max)
	}
	j := s.jitterHook(task, cycle, max)
	if j < 0 || j > max {
		panic(fmt.Sprintf("rtos: release jitter hook returned %v for task %q, outside [0, %v]", j, task, max))
	}
	return j
}

// BlockedTasks returns the tasks still waiting (for a synchronization or a
// resource) at the current instant — after Run ends this reveals deadlocks
// and starvation.
func (s *System) BlockedTasks() []*Task {
	var blocked []*Task
	for _, cpu := range s.cpus {
		for _, t := range cpu.tasks {
			if t.state == trace.StateWaiting || t.state == trace.StateWaitingResource {
				blocked = append(blocked, t)
			}
		}
	}
	return blocked
}
