package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/batch"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// variantOutcome is a sweep variant's simulated result as the checks see it:
// batch metrics minus the kernel effort counters.
type variantOutcome struct {
	Label                               string
	End                                 int64
	Finish                              string
	Dispatches, Preemptions, Migrations uint64
	ContextSwitches                     int
	OverheadPs                          int64
	Violations, DeadlineMisses          int
	Jobs, AbortedJobs                   int
	Utilization                         float64
	Err                                 string
}

func variantOutcomes(results []batch.Result) []variantOutcome {
	out := make([]variantOutcome, len(results))
	for i, r := range results {
		m := r.Metrics
		out[i] = variantOutcome{r.Variant.Label(), int64(m.End), m.Finish, m.Dispatches, m.Preemptions,
			m.Migrations, m.ContextSwitches, int64(m.OverheadPs), m.Violations, m.DeadlineMisses, m.Jobs,
			m.AbortedJobs, m.Utilization, r.Err}
	}
	return out
}

// sweepInputs generates the sweep_wide base scenario and spec.
func sweepInputs(cfg config) (base []byte, spec *batch.Spec, variants int, err error) {
	base = genWide(cfg.Seed, defaultWide, fmt.Sprintf("wide-%d", cfg.Seed), streamWide)
	if _, err = scenario.Parse(base); err != nil {
		return nil, nil, 0, fmt.Errorf("generated scenario: %w", err)
	}
	if spec, err = batch.ParseSpec(sweepSpec(cfg.Nproc)); err != nil {
		return nil, nil, 0, err
	}
	vs, err := spec.Expand()
	return base, spec, len(vs), err
}

// runSweep measures sweep_wide: repeated runner.Sweep calls over the grid.
func runSweep(cfg config, ck *checker) (*outcome, error) {
	var base []byte
	var spec *batch.Spec
	var nvar int
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if base, spec, nvar, err = sweepInputs(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out := newOutcome()
	out.sample("setup_s", "s", setups)
	opts := runner.SweepOptions{Workers: cfg.Nproc}

	ref, err := runner.Sweep(spec, base, opts)
	if err != nil {
		return nil, err
	}
	refOut := variantOutcomes(ref.Results)
	checkSweep(cfg, ck, refOut)
	out.detail["batch.engine_mismatches"], out.detail["batch.first_mismatch"] = engineMismatches(refOut)

	var times, allocs, users, syss, rss []float64
	var steal time.Duration
	variants := 0
	wall := time.Duration(0)
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for len(times) < minOps || time.Now().Before(deadline) {
		resetPeakRSS()
		a0, s0 := totalAlloc(), stealTime()
		u0, k0 := cpuTimes()
		start := time.Now()
		res, err := runner.Sweep(spec, base, opts)
		d := time.Since(start)
		u1, k1 := cpuTimes()
		users, syss = append(users, ms(u1-u0)/float64(nvar)), append(syss, ms(k1-k0)/float64(nvar))
		steal += stealTime() - s0
		rss = append(rss, peakRSSMiB())
		wall += d
		out.attempted += nvar
		switch {
		case err != nil:
			out.failed += nvar
			ck.fail("sweep: %v", err)
		default:
			for i, r := range res.Results {
				if r.Err != "" || i >= len(ref.Results) || !reflect.DeepEqual(r, ref.Results[i]) {
					out.failed++
					ck.fail("variant %s differs from the reference sweep", r.Variant.Label())
				}
			}
			variants += len(res.Results)
		}
		times = append(times, ms(d))
		allocs = append(allocs, float64(totalAlloc()-a0)/mib/float64(nvar))
	}
	out.sample("user_cpu_ms", "ms", users)
	out.detail["sys_cpu_ms"] = summarize(syss)
	out.sample("alloc_mb", "MiB", allocs)
	out.sample("peak_rss_mb", "MiB", rss)
	out.wallClock(times, float64(variants)/wall.Seconds(), steal, wall*time.Duration(cfg.Nproc))
	out.detail["variants_per_sweep"] = nvar
	return out, nil
}

// checkSweep checks the grid's simulated outcomes: no variant fails, and
// the default seed matches the pinned grid.
func checkSweep(cfg config, ck *checker, vs []variantOutcome) {
	for _, v := range vs {
		ck.check(v.Err == "", "variant %s failed: %s", v.Label, v.Err)
	}
	checkPinned(cfg, ck, "sweep", vs)
}

// engineMismatches counts the variants whose simulated outcome differs from
// the procedural/goroutine variant with the same policy, speed and
// overheads. The engines are meant to agree; the generated wide scenarios
// show same-instant queue hand-offs on which the threaded processor engine
// diverges, so the count is reported rather than failed (see README.md).
func engineMismatches(vs []variantOutcome) (n int, first string) {
	// Variants nest engines, then task engines: with 2 engines and 2 task
	// engines the grid is 4 blocks of equal size.
	const blocks = 4
	size := len(vs) / blocks
	for i := 0; i < size; i++ {
		for b := 1; b < blocks; b++ {
			a, o := vs[i], vs[b*size+i]
			a.Label, o.Label = "", ""
			if a != o {
				n++
				if first == "" {
					first = fmt.Sprintf("%s vs %s: %+v vs %+v", vs[b*size+i].Label, vs[i].Label, o, a)
				}
			}
		}
	}
	return n, first
}
