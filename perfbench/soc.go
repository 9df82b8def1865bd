package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// minOps is the fewest timed operations a run reports, however long each
// takes.
const minOps = 3

// setupReps is how many times a run repeats a set-up that costs well under
// a millisecond; setup_s is the median.
const setupReps = 100

// runSoC measures soc_long (sequential runner.Run) or soc_shards
// (runner.Run with Shards = nproc) on the generated pipeline SoC.
func runSoC(cfg config, ck *checker, sharded bool) (*outcome, error) {
	opts := runner.Options{}
	if sharded {
		opts.Shards = cfg.Nproc
	}
	var data []byte
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		data = genSoC(cfg.Seed)
		desc, err := runner.Prepare(data, opts)
		if err != nil {
			return nil, fmt.Errorf("generated scenario: %w", err)
		}
		if sharded {
			if _, err := desc.Partition(cfg.Nproc); err != nil {
				return nil, fmt.Errorf("partition: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out := newOutcome()
	out.sample("setup_s", "s", setups)

	// The warm-up run is the reference every timed run must reproduce byte
	// for byte (the simulator is deterministic).
	ref, err := runner.Run(data, opts, "soc")
	if err != nil {
		return nil, err
	}
	checkSoCResult(ck, ref, ref)

	var times, allocs, rss, users, syss []float64
	var steal time.Duration
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	wall := time.Duration(0)
	for len(times) < minOps || time.Now().Before(deadline) {
		resetPeakRSS()
		a0, s0 := totalAlloc(), stealTime()
		u0, k0 := cpuTimes()
		start := time.Now()
		res, err := runner.Run(data, opts, "soc")
		d := time.Since(start)
		u1, k1 := cpuTimes()
		users, syss, steal = append(users, ms(u1-u0)), append(syss, ms(k1-k0)), steal+stealTime()-s0
		rss = append(rss, peakRSSMiB())
		wall += d
		out.attempted++
		if err != nil || !checkSoCResult(ck, ref, res) {
			out.failed++
			if err != nil {
				ck.fail("run: %v", err)
			}
		}
		times = append(times, ms(d))
		allocs = append(allocs, float64(totalAlloc()-a0)/mib)
	}
	out.sample("user_cpu_ms", "ms", users)
	out.detail["sys_cpu_ms"] = summarize(syss)
	out.sample("alloc_mb", "MiB", allocs)
	out.sample("peak_rss_mb", "MiB", rss)
	out.wallClock(times, float64(len(times))/wall.Seconds(), steal, wall*time.Duration(cfg.Nproc))

	if err := checkSoC(cfg, ck, data, ref, sharded, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkSoCResult checks one timed run against the reference run.
func checkSoCResult(ck *checker, ref, res *runner.Result) bool {
	ok := ck.check(res.SimError == "", "run failed: %s", res.SimError)
	ok = ok && ck.check(res.Finish == "limit", "run finished %s, want limit", res.Finish)
	ok = ok && ck.check(bytes.Equal(res.Report, ref.Report), "report differs from the reference run")
	return ok && ck.check(res.ExitCode() == ref.ExitCode(), "exit code %d, reference %d", res.ExitCode(), ref.ExitCode())
}

// checkSoC checks the simulated outcome, untimed: the runner's report must
// carry the statistics and constraint sections the layers compute; soc_long
// must agree between the procedural and threaded engines, soc_shards with
// the sequential engine; the default seed must match the pinned outcome.
func checkSoC(cfg config, ck *checker, data []byte, ref *runner.Result, sharded bool, out *outcome) error {
	seq, err := runHand(data, nil, 0, nil, 0, 0)
	if err != nil {
		return err
	}
	seqStats, seqSections := seq.compose(nil, 0, 0)
	seqOut := seq.outcome(seqStats)
	ck.check(seqOut.Exit == ref.ExitCode(), "exit code: runner %d, layers %d", ref.ExitCode(), seqOut.Exit)
	if !sharded {
		ck.check(reportHas(ref.Report, seqSections), "runner report lacks the layers' statistics and constraint sections")
		threaded, err := runHand(data, func(d *scenario.System) {
			for i := range d.Processors {
				d.Processors[i].Engine = "threaded"
			}
		}, 0, nil, 0, 0)
		if err != nil {
			return err
		}
		thStats, _ := threaded.compose(nil, 0, 0)
		for _, d := range diffOutcomes(seqOut, threaded.outcome(thStats), true) {
			ck.fail("soc_long procedural vs threaded: %s", d)
		}
	} else {
		par, err := runHand(data, nil, cfg.Nproc, nil, 0, 0)
		if err != nil {
			return err
		}
		ck.check(len(par.plan.Groups) == cfg.Nproc, "soc_shards: %d shards, want %d", len(par.plan.Groups), cfg.Nproc)
		parStats, parSections := par.compose(nil, 0, 0)
		ck.check(reportHas(ref.Report, parSections), "sharded runner report lacks the merged statistics and constraint sections")
		parOut := par.outcome(parStats)
		for _, d := range diffOutcomes(seqOut, parOut, false) {
			ck.fail("soc_shards vs sequential: %s", d)
		}
		out.detail["psim.report_order_diffs"] = orderDiffs(seqOut, parOut)
	}
	checkPinned(cfg, ck, "soc", seqOut)
	return nil
}
