package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/psim"
	"repro/internal/rtos"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// handRun is one scenario run composed from the layers' public calls
// (parse, build or partition, simulate, merge) instead of runner.Run, so
// the traced run can time each layer and the checks can read structured
// statistics rather than report text.
type handRun struct {
	desc    *scenario.System
	plan    *scenario.ShardPlan // nil for a sequential run
	shards  []*scenario.Built   // per-shard systems of a sharded run
	rec     *trace.Recorder
	cons    *rtos.ConstraintSet
	reg     *metrics.Registry
	end     sim.Time
	finish  sim.FinishReason
	runErr  error
	parse   time.Duration // scenario.Parse
	build   time.Duration // Build (sequential runs)
	simTime time.Duration // the simulate call alone (RunChecked or psim.Run)
	simGC   float64       // GC CPU seconds during the simulate call
	simHeap uint64        // heap bytes allocated during the simulate call
	merge   time.Duration // trace.MergeRecorders (sharded runs)
}

// simulate times fn as the simulate-layer span and records its allocation
// and GC cost.
func (h *handRun) simulate(name string, tr *tracer, parent, op int, fn func()) {
	a0, g0 := totalAlloc(), gcCPUSeconds()
	_, h.simTime = tr.do(name, parent, op, fn)
	h.simHeap, h.simGC = totalAlloc()-a0, gcCPUSeconds()-g0
}

// runHand parses data, applies mutate (nil: none), and simulates it on one
// kernel (shards == 0) or through the sharded engine with Partition(shards).
// Spans go to tr under parent/op.
func runHand(data []byte, mutate func(*scenario.System), shards int, tr *tracer, parent, op int) (*handRun, error) {
	h := &handRun{}
	var err error
	_, h.parse = tr.do("scenario.parse", parent, op, func() { h.desc, err = scenario.Parse(data) })
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(h.desc)
		if err := h.desc.Validate(); err != nil {
			return nil, err
		}
	}
	if shards == 0 {
		var built *scenario.Built
		_, h.build = tr.do("scenario.build", parent, op, func() { built, err = h.desc.Build() })
		if err != nil {
			return nil, err
		}
		h.simulate("simulate", tr, parent, op, func() { _, h.runErr = built.RunChecked() })
		sys := built.Sys
		h.rec, h.cons, h.reg = sys.Rec, sys.Constraints, sys.Metrics
		h.end, h.finish = sys.Now(), sys.FinishReason()
		return h, nil
	}
	tr.do("scenario.partition", parent, op, func() { h.plan, err = h.desc.Partition(shards) })
	if err != nil {
		return nil, err
	}
	var pres *psim.Result
	h.simulate("psim.run", tr, parent, op, func() { pres, err = psim.Run(h.desc, h.plan) })
	if err != nil {
		return nil, err
	}
	h.shards = pres.Builts
	h.end, h.finish, h.runErr = pres.End, pres.Finish, pres.Err
	recs := make([]*trace.Recorder, len(pres.Builts))
	sets := make([]*rtos.ConstraintSet, len(pres.Builts))
	h.reg = metrics.NewRegistry()
	for i, b := range pres.Builts {
		recs[i], sets[i] = b.Sys.Rec, b.Sys.Constraints
		h.reg.Merge(b.Sys.Metrics)
	}
	if len(recs) == 1 {
		h.rec = recs[0]
	} else {
		_, h.merge = tr.do("trace.merge", parent, op, func() { h.rec = trace.MergeRecorders(recs, h.end) })
	}
	names := make([]string, len(h.desc.Constraints))
	for i, c := range h.desc.Constraints {
		names[i] = c.Name
	}
	h.cons = rtos.MergeConstraintSets(sets, names)
	return h, nil
}

// compose renders the statistics and constraint sections the default
// report is made of, timing them as report.compose with trace.stats as its
// child.
func (h *handRun) compose(tr *tracer, parent, op int) (stats trace.Stats, sections [][]byte) {
	id := tr.begin("report.compose", parent, op)
	tr.do("trace.stats", id, op, func() {
		stats = h.rec.ComputeStats(0)
		sections = append(sections, []byte(stats.String()))
	})
	tr.do("constraints.report", id, op, func() { sections = append(sections, []byte(h.cons.Report())) })
	tr.end(id)
	return stats, sections
}

// reportHas reports whether report contains every section.
func reportHas(report []byte, sections [][]byte) bool {
	for _, s := range sections {
		if !bytes.Contains(report, s) {
			return false
		}
	}
	return true
}

// records counts the trace records the run kept.
func (h *handRun) records() int {
	r := h.rec
	return len(r.StateChanges()) + len(r.Overheads()) + len(r.Accesses()) + len(r.Depths()) +
		len(r.Migrations()) + len(r.FaultEvents())
}

// counter sums a registry counter over all its label sets.
func counter(reg *metrics.Registry, name string) int64 {
	var n int64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			n += m.Value
		}
	}
	return n
}

// pinnedRTOS are the RTOS counters the checks compare: simulated scheduler
// behaviour, not kernel effort (activations, delta cycles and continuation
// resumes may legitimately change with the engine implementation).
var pinnedRTOS = []string{
	"rtos_elections_total", "rtos_dispatches_total", "rtos_preemptions_total",
	"rtos_migrations_total", "rtos_context_switches_total", "rtos_deadline_misses_total",
	"rtos_overhead_time_ps_total",
}

// simOutcome is the simulated result of a run as the checks see it: exit
// code, constraint verdict, end time and the statistics rows, by value.
// Report formatting and kernel effort counters are deliberately absent.
type simOutcome struct {
	Exit          int              `json:"exit"`
	ConstraintsOK bool             `json:"constraintsOK"`
	Violations    int              `json:"violations"`
	End           int64            `json:"endPs"`
	Finish        string           `json:"finish"`
	Tasks         []taskRow        `json:"tasks"`
	Processors    []cpuRow         `json:"processors"`
	Objects       []objRow         `json:"objects"`
	RTOS          map[string]int64 `json:"rtos"`
}

type taskRow struct {
	Task, CPU                                                    string
	Running, Ready, Waiting, WaitingResource, Overhead, Inactive int64
	Activations, Preemptions                                     int
}

type cpuRow struct {
	CPU                  string
	Cores                int
	Busy, Overhead, Idle int64
	ContextSwitches      int
}

type objRow struct {
	Object                                          string
	Utilization                                     float64
	Busy                                            int64
	Signals, Sends, Receives, Reads, Writes, Blocks int
}

func (h *handRun) outcome(stats trace.Stats) simOutcome {
	o := simOutcome{ConstraintsOK: h.cons.OK(), Violations: len(h.cons.Violations()),
		End: int64(h.end), Finish: h.finish.String(), RTOS: map[string]int64{}}
	if h.runErr != nil || !o.ConstraintsOK {
		o.Exit = 1
	}
	for _, t := range stats.Tasks {
		o.Tasks = append(o.Tasks, taskRow{t.Task, t.CPU, int64(t.Running), int64(t.Ready), int64(t.Waiting),
			int64(t.WaitingResource), int64(t.Overhead), int64(t.Inactive), t.Activations, t.Preemptions})
	}
	for _, c := range stats.Processors {
		o.Processors = append(o.Processors, cpuRow{c.CPU, c.Cores, int64(c.Busy), int64(c.Overhead),
			int64(c.Idle), c.ContextSwitches})
	}
	for _, ob := range stats.Objects {
		o.Objects = append(o.Objects, objRow{ob.Object, ob.Utilization, int64(ob.Busy), ob.Signals, ob.Sends,
			ob.Receives, ob.Reads, ob.Writes, ob.Blocks})
	}
	for _, name := range pinnedRTOS {
		o.RTOS[name] = counter(h.reg, name)
	}
	return o
}

// diffOutcomes lists how b differs from a. Rows are matched by name; when
// ordered is set, a row at a different position is a difference too.
// Utilization is a time-weighted float mean and is compared to a relative
// 1e-9.
func diffOutcomes(a, b simOutcome, ordered bool) []string {
	var d []string
	if a.Exit != b.Exit || a.ConstraintsOK != b.ConstraintsOK || a.Violations != b.Violations {
		d = append(d, fmt.Sprintf("verdict: exit %d ok %v violations %d vs exit %d ok %v violations %d",
			a.Exit, a.ConstraintsOK, a.Violations, b.Exit, b.ConstraintsOK, b.Violations))
	}
	if a.End != b.End || a.Finish != b.Finish {
		d = append(d, fmt.Sprintf("end: %dps %s vs %dps %s", a.End, a.Finish, b.End, b.Finish))
	}
	d = append(d, diffRows("task", rowsBy(a.Tasks, func(r taskRow) string { return r.Task }),
		rowsBy(b.Tasks, func(r taskRow) string { return r.Task }), ordered, func(x, y taskRow) bool { return x == y })...)
	d = append(d, diffRows("processor", rowsBy(a.Processors, func(r cpuRow) string { return r.CPU }),
		rowsBy(b.Processors, func(r cpuRow) string { return r.CPU }), ordered, func(x, y cpuRow) bool { return x == y })...)
	d = append(d, diffRows("object", rowsBy(a.Objects, func(r objRow) string { return r.Object }),
		rowsBy(b.Objects, func(r objRow) string { return r.Object }), ordered, func(x, y objRow) bool {
			u := math.Abs(x.Utilization-y.Utilization) <= 1e-9*math.Max(1, math.Abs(x.Utilization))
			x.Utilization, y.Utilization = 0, 0
			return u && x == y
		})...)
	if a.RTOS != nil && b.RTOS != nil {
		for _, name := range pinnedRTOS {
			if a.RTOS[name] != b.RTOS[name] {
				d = append(d, fmt.Sprintf("%s: %d vs %d", name, a.RTOS[name], b.RTOS[name]))
			}
		}
	}
	return d
}

type keyed[T any] struct {
	keys []string
	rows map[string]T
}

func rowsBy[T any](rows []T, key func(T) string) keyed[T] {
	k := keyed[T]{rows: map[string]T{}}
	for _, r := range rows {
		k.keys = append(k.keys, key(r))
		k.rows[key(r)] = r
	}
	return k
}

func diffRows[T any](kind string, a, b keyed[T], ordered bool, eq func(x, y T) bool) []string {
	var d []string
	if len(a.keys) != len(b.keys) {
		d = append(d, fmt.Sprintf("%s rows: %d vs %d", kind, len(a.keys), len(b.keys)))
	}
	for _, k := range a.keys {
		y, ok := b.rows[k]
		switch {
		case !ok:
			d = append(d, fmt.Sprintf("%s %s missing", kind, k))
		case !eq(a.rows[k], y):
			d = append(d, fmt.Sprintf("%s %s: %+v vs %+v", kind, k, a.rows[k], y))
		}
	}
	if ordered && len(d) == 0 && strings.Join(a.keys, ",") != strings.Join(b.keys, ",") {
		d = append(d, fmt.Sprintf("%s row order: %v vs %v", kind, a.keys, b.keys))
	}
	return d
}

// orderDiffs counts statistics rows whose position differs between two
// outcomes that agree as sets.
func orderDiffs(a, b simOutcome) int {
	n := 0
	count := func(x, y []string) {
		for i := range x {
			if i >= len(y) || x[i] != y[i] {
				n++
			}
		}
	}
	count(names(a.Tasks, func(r taskRow) string { return r.Task }), names(b.Tasks, func(r taskRow) string { return r.Task }))
	count(names(a.Processors, func(r cpuRow) string { return r.CPU }), names(b.Processors, func(r cpuRow) string { return r.CPU }))
	count(names(a.Objects, func(r objRow) string { return r.Object }), names(b.Objects, func(r objRow) string { return r.Object }))
	return n
}

func names[T any](rows []T, key func(T) string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = key(r)
	}
	return out
}
