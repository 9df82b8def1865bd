package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file covers the multiprocessor side of the analysis package: trace
// post-processing (per-core load extraction) and classical multiprocessor
// schedulability tests for the two scheduling domains the RTOS model
// implements — partitioned (first-fit bin packing onto per-core
// single-processor tests) and global (the Goossens/Funk/Baruah density
// bound).

// CoreLoad aggregates one core's share of a processor's work over an
// observation window, extracted from the core-tagged Running segments of a
// trace.
type CoreLoad struct {
	CPU    string
	Core   int
	Window sim.Time

	// Busy is the time with application code running on the core.
	Busy sim.Time
	// Dispatches counts Ready -> Running transitions landing on the core.
	Dispatches int
	// MigrationsIn counts dispatches that moved the task onto this core from
	// a different one. Always zero under the partitioned domain.
	MigrationsIn int
}

// LoadRatio is the fraction of the window with application code running.
func (c CoreLoad) LoadRatio() float64 { return ratio(c.Busy, c.Window) }

func ratio(part, whole sim.Time) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// CoreLoads computes the per-core utilization of every processor in the
// trace over [0, end] (end zero: the recorder's natural end) from the
// recorder's per-core statistics. Hardware tasks (no CPU) and ISR
// pseudo-tasks contribute nothing. The result is sorted by processor name,
// then core id.
func CoreLoads(rec *trace.Recorder, end sim.Time) []CoreLoad {
	if rec == nil {
		return nil
	}
	if end == 0 {
		end = rec.End()
	}
	cores := rec.CoreStats(end)
	out := make([]CoreLoad, len(cores))
	for i, c := range cores {
		out[i] = CoreLoad{CPU: c.CPU, Core: c.Core, Window: end,
			Busy: c.Busy, Dispatches: c.Dispatches, MigrationsIn: c.MigrationsIn}
	}
	return out
}

// CoreLoadReport renders the per-core loads plus migration totals for
// terminal output; empty when no load was extracted.
func CoreLoadReport(loads []CoreLoad) string {
	if len(loads) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("Cores:\n")
	fmt.Fprintf(&b, "  %-16s %5s %8s  %6s %6s\n", "cpu", "core", "load%", "disp", "migr")
	for _, l := range loads {
		fmt.Fprintf(&b, "  %-16s %5d %7.2f%%  %6d %6d\n",
			l.CPU, l.Core, 100*l.LoadRatio(), l.Dispatches, l.MigrationsIn)
	}
	return b.String()
}

// Partition is the outcome of a partitioned-multiprocessor schedulability
// test: the core assignment found (task names per core) and whether every
// task was placed.
type Partition struct {
	// Cores holds the task names assigned to each core.
	Cores [][]string
	// Utilization holds each core's assigned utilization.
	Utilization []float64
	// Schedulable is true when every task was placed without exceeding any
	// core's bound.
	Schedulable bool
	// Unplaced lists tasks that fit on no core.
	Unplaced []string
}

// PartitionFirstFit packs the task set onto m cores with the first-fit
// decreasing heuristic, admitting a task onto a core only while the core's
// total utilization stays within bound (use 1.0 for per-core EDF, or the
// Liu-Layland bound of the per-core task count for rate-monotonic
// scheduling). This mirrors the model's partitioned domain, where
// TaskConfig.Affinity pins each task to one core's private ready queue.
func PartitionFirstFit(tasks []TaskSpec, m int, bound func(coreTasks int) float64) (Partition, error) {
	if err := validate(tasks); err != nil {
		return Partition{}, err
	}
	if m < 1 {
		return Partition{}, fmt.Errorf("analysis: need at least one core")
	}
	if bound == nil {
		bound = func(int) float64 { return 1.0 }
	}
	ordered := append([]TaskSpec(nil), tasks...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].util() > ordered[j].util()
	})
	p := Partition{
		Cores:       make([][]string, m),
		Utilization: make([]float64, m),
		Schedulable: true,
	}
	for _, t := range ordered {
		placed := false
		for c := 0; c < m; c++ {
			if p.Utilization[c]+t.util() <= bound(len(p.Cores[c])+1) {
				p.Cores[c] = append(p.Cores[c], t.Name)
				p.Utilization[c] += t.util()
				placed = true
				break
			}
		}
		if !placed {
			p.Schedulable = false
			p.Unplaced = append(p.Unplaced, t.Name)
		}
	}
	return p, nil
}

func (t TaskSpec) util() float64 { return float64(t.WCET) / float64(t.Period) }

// GlobalEDFSchedulable applies the Goossens-Funk-Baruah utilization bound for
// global EDF on m identical cores with implicit deadlines:
//
//	U_total <= m - (m - 1) * U_max
//
// The test is sufficient, not necessary: task sets above the bound may still
// be schedulable (the model's global domain simulates the exact behaviour),
// but any set below it is guaranteed.
func GlobalEDFSchedulable(tasks []TaskSpec, m int) (bool, error) {
	if err := validate(tasks); err != nil {
		return false, err
	}
	if m < 1 {
		return false, fmt.Errorf("analysis: need at least one core")
	}
	umax := 0.0
	for _, t := range tasks {
		if u := t.util(); u > umax {
			umax = u
		}
	}
	if umax > 1 {
		return false, nil
	}
	return Utilization(tasks) <= float64(m)-float64(m-1)*umax, nil
}
