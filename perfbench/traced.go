package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/trace"
)

// tracedSessionJobs is the number of jobs per client in each daemon session
// of the traced run.
const tracedSessionJobs = 100

// layerUnits lists every per-layer metric the traced run reports, with its
// unit. Each is measured on the workload it belongs to (see README.md).
var layerUnits = map[string]string{
	"scenario.parse_ms": "ms", "scenario.build_ms": "ms", "scenario.hash_us": "us", "scenario.partition_us": "us",
	"simulate.s": "s", "simulate.alloc_mb": "MiB", "simulate.gc_cpu_s": "s", "simulate.ns_per_dispatch": "ns",
	"sim.activations": "count", "sim.method_runs": "count", "sim.strand_resumes": "count",
	"sim.timed_scheduled": "count", "sim.timed_pops": "count", "sim.delta_cycles": "count",
	"rtos.dispatches": "count", "rtos.preemptions": "count", "rtos.context_switches": "count",
	"rtos.elections": "count", "sim.activations_per_dispatch": "ratio", "sim.activations_per_dispatch_cont": "ratio",
	"trace.records": "count", "trace.live_mb": "MiB", "trace.stats_ms": "ms", "trace.merge_ms": "ms",
	"trace.perfetto_ms": "ms", "metrics.json_ms": "ms", "report.compose_ms": "ms",
	"psim.run_s": "s", "psim.run_cpu1_s": "s", "psim.speedup": "ratio", "psim.vs_seq": "ratio",
	"psim.shards": "count", "psim.cut_links": "count", "psim.imbalance": "ratio", "psim.report_order_diffs": "count",
	"batch.variant_p50_ms": "ms", "batch.variant_p90_ms": "ms", "batch.worker_util": "ratio",
	"batch.setup_share_goroutine": "ratio", "batch.setup_share_continuation": "ratio",
	"batch.engine_mismatches": "count",
	"http.submit_hit_ms":      "ms", "http.submit_miss_ms": "ms", "http.fetch_ms": "ms",
	"daemon.queue_wait_ms": "ms", "daemon.run_ms": "ms", "daemon.hit_p50_ms": "ms", "daemon.miss_p50_ms": "ms",
	"daemon.hit_p90_ms": "ms", "daemon.miss_p90_ms": "ms", "daemon.rejected": "count",
	"cache.hit_ratio": "ratio", "cache.lookups": "count", "cache.sims_per_miss": "ratio",
	"journal.bytes_per_job": "bytes", "journal.submit_cost_ms": "ms", "journal.replay_ms": "ms",
	"trace.overhead_ms": "ms",
}

// layers accumulates per-layer values for the outcome.
type layers map[string]float64

func (l layers) into(out *outcome) error {
	for name, v := range l {
		out.set(name, layerUnits[name], v)
	}
	return checkUnits(out, layerUnits)
}

// runTraced is the traced run. It replays every workload once, shortened,
// with a span around each layer call this package makes, and reports the
// per-layer metrics, each measured on its own workload. The workload named
// on the command line also has its end-to-end operation timed untraced and
// traced, which gives the tracing overhead. Spans are written to
// .bench_build/perfbench/.
func runTraced(cfg config, ck *checker) (*outcome, error) {
	tr := newTracer()
	out := newOutcome()
	l := layers{}
	seq, err := traceSoC(cfg, ck, tr, out, l)
	if err != nil {
		return nil, err
	}
	if err := traceShards(cfg, ck, tr, out, l, seq); err != nil {
		return nil, err
	}
	if err := traceSweep(cfg, ck, tr, out, l); err != nil {
		return nil, err
	}
	if err := traceDaemon(cfg, ck, tr, out, l); err != nil {
		return nil, err
	}
	if err := traceOverhead(cfg, ck, tr, out, l); err != nil {
		return nil, err
	}
	if err := l.into(out); err != nil {
		return nil, err
	}
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	out.detail["span_file"] = path
	out.detail["spans"] = len(tr.spans)
	out.detail["self_ms"] = tr.selfTimes()
	return out, nil
}

// seqRun is what the sequential soc run hands to the sharded one.
type seqRun struct {
	outcome simOutcome
	simTime time.Duration
}

// traceSoC runs the soc scenario once through the layers, sequentially.
func traceSoC(cfg config, ck *checker, tr *tracer, out *outcome, l layers) (*seqRun, error) {
	data := genSoC(cfg.Seed)
	runtime.GC()
	op := tr.newOp()
	root := tr.begin("soc_long.run", 0, op)
	h, err := runHand(data, nil, 0, tr, root, op)
	if err != nil {
		return nil, err
	}
	retained := liveHeap()
	stats, _ := h.compose(tr, root, op)
	tr.end(root)
	out.attempted++
	if !ck.check(h.runErr == nil && h.finish.String() == "limit", "soc run: %v, finished %v", h.runErr, h.finish) {
		out.failed++
	}

	l["simulate.s"] = h.simTime.Seconds()
	l["simulate.alloc_mb"] = float64(h.simHeap) / mib
	l["simulate.gc_cpu_s"] = h.simGC
	for name, metric := range map[string]string{
		"sim.activations": "sim_activations_total", "sim.method_runs": "sim_method_runs_total",
		"sim.strand_resumes": "sim_strand_resumes_total", "sim.timed_scheduled": "sim_timed_scheduled_total",
		"sim.timed_pops": "sim_timed_pops_total", "sim.delta_cycles": "sim_delta_cycles_total",
		"rtos.dispatches": "rtos_dispatches_total", "rtos.preemptions": "rtos_preemptions_total",
		"rtos.context_switches": "rtos_context_switches_total", "rtos.elections": "rtos_elections_total",
	} {
		l[name] = float64(counter(h.reg, metric))
	}
	l["simulate.ns_per_dispatch"] = float64(h.simTime.Nanoseconds()) / max(1, l["rtos.dispatches"])
	l["sim.activations_per_dispatch"] = l["sim.activations"] / max(1, l["rtos.dispatches"])
	l["trace.records"] = float64(h.records())
	l["trace.stats_ms"] = spanMS(tr, "trace.stats", op)
	l["report.compose_ms"] = spanMS(tr, "report.compose", op)

	var parts []float64
	for i := 0; i < 50; i++ {
		_, d := tr.do("scenario.partition", 0, op, func() { _, err = h.desc.Partition(cfg.Nproc) })
		if err != nil {
			return nil, err
		}
		parts = append(parts, float64(d.Nanoseconds())/1e3)
	}
	l["scenario.partition_us"] = median(parts)

	seq := &seqRun{outcome: h.outcome(stats), simTime: h.simTime}
	h = nil
	// The system a finished run keeps alive is dominated by its trace
	// recorder; measure it as the heap the run retained after a forced GC.
	l["trace.live_mb"] = float64(int64(retained)-int64(liveHeap())) / mib
	return seq, nil
}

// spanMS is the duration of the last span with the given name in op.
func spanMS(tr *tracer, name string, op int) float64 {
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if s := tr.spans[i]; s.Name == name && s.Op == op {
			return float64(s.End-s.Start) / 1e6
		}
	}
	return 0
}

// traceShards runs the soc scenario through Partition, psim.Run and the
// merges, at GOMAXPROCS = nproc and again at 1.
func traceShards(cfg config, ck *checker, tr *tracer, out *outcome, l layers, seq *seqRun) error {
	data := genSoC(cfg.Seed)
	run := func(name string) (*handRun, simOutcome, error) {
		runtime.GC()
		op := tr.newOp()
		root := tr.begin(name, 0, op)
		h, err := runHand(data, nil, cfg.Nproc, tr, root, op)
		if err != nil {
			return nil, simOutcome{}, err
		}
		stats, _ := h.compose(tr, root, op)
		tr.end(root)
		o := h.outcome(stats)
		out.attempted++
		ok := ck.check(len(h.plan.Groups) == cfg.Nproc, "sharded plan has %d groups, want %d", len(h.plan.Groups), cfg.Nproc)
		for _, d := range diffOutcomes(seq.outcome, o, false) {
			ok = false
			ck.fail("sharded vs sequential: %s", d)
		}
		if !ok {
			out.failed++
		}
		return h, o, nil
	}
	h, o, err := run("soc_shards.run")
	if err != nil {
		return err
	}
	l["psim.run_s"] = h.simTime.Seconds()
	l["psim.shards"] = float64(len(h.plan.Groups))
	l["psim.cut_links"] = float64(len(h.plan.Links))
	l["trace.merge_ms"] = ms(h.merge)
	l["psim.vs_seq"] = seq.simTime.Seconds() / h.simTime.Seconds()
	l["psim.report_order_diffs"] = float64(orderDiffs(seq.outcome, o))
	var most, sum float64
	for _, b := range h.shards {
		d := float64(counter(b.Sys.Metrics, "rtos_dispatches_total"))
		most, sum = max(most, d), sum+d
	}
	l["psim.imbalance"] = most / max(1, sum/float64(len(h.shards)))
	h = nil

	prev := runtime.GOMAXPROCS(1)
	h1, _, err := run("soc_shards.run_cpu1")
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	l["psim.run_cpu1_s"] = h1.simTime.Seconds()
	l["psim.speedup"] = l["psim.run_cpu1_s"] / l["psim.run_s"]
	return nil
}

// traceSweep runs the sweep grid once with timing hooks, and the base
// scenario by hand under each task engine.
func traceSweep(cfg config, ck *checker, tr *tracer, out *outcome, l layers) error {
	base, spec, nvar, err := sweepInputs(cfg)
	if err != nil {
		return err
	}
	op := tr.newOp()
	res, root, wall, spans, err := hookedSweep(cfg, tr, spec, base, "sweep_wide.sweep", op)
	if err != nil {
		return err
	}
	out.attempted += nvar
	for _, r := range res.Results {
		if !ck.check(r.Err == "", "variant %s failed: %s", r.Variant.Label(), r.Err) {
			out.failed++
		}
	}
	mismatches, _ := engineMismatches(variantOutcomes(res.Results))
	l["batch.engine_mismatches"] = float64(mismatches)
	var variantMS []float64
	var busy time.Duration
	for _, s := range spans {
		tr.record("batch.variant", root, op, s.start, s.end)
		variantMS = append(variantMS, ms(s.end.Sub(s.start)))
		busy += s.end.Sub(s.start)
	}
	sum := summarize(variantMS)
	l["batch.variant_p50_ms"], l["batch.variant_p90_ms"] = sum.Median, sum.P90
	l["batch.worker_util"] = busy.Seconds() / (wall.Seconds() * float64(cfg.Nproc))

	var parses, builds []float64
	for _, te := range []string{"goroutine", "continuation"} {
		var shares []float64
		for i := 0; i < 3; i++ {
			op := tr.newOp()
			root := tr.begin("sweep_wide.variant_by_hand", 0, op)
			h, err := runHand(base, func(d *scenario.System) {
				for k := range d.Tasks {
					d.Tasks[k].Engine = te
				}
			}, 0, tr, root, op)
			if err != nil {
				return err
			}
			_, stats := tr.do("trace.stats", root, op, func() { h.rec.ComputeStats(0) })
			tr.end(root)
			out.attempted++
			if !ck.check(h.runErr == nil, "wide scenario (%s): %v", te, h.runErr) {
				out.failed++
			}
			setup := h.parse + h.build
			shares = append(shares, setup.Seconds()/(setup+h.simTime+stats).Seconds())
			parses, builds = append(parses, ms(h.parse)), append(builds, ms(h.build))
			if te == "continuation" {
				l["sim.activations_per_dispatch_cont"] = float64(counter(h.reg, "sim_activations_total")) /
					max(1, float64(counter(h.reg, "rtos_dispatches_total")))
			}
		}
		l["batch.setup_share_"+te] = median(shares)
	}
	l["scenario.parse_ms"], l["scenario.build_ms"] = median(parses), median(builds)
	return nil
}

// traceDaemon runs one daemon_mix session as the untraced run does (no
// journal), then a session with a journal and its replay, a
// with/without-journal comparison of cache-hit submits, and the exporters a
// miss pays for.
func traceDaemon(cfg config, ck *checker, tr *tracer, out *outcome, l layers) error {
	var h *daemonHarness
	var err error
	_, start := tr.do("daemon.start", 0, tr.newOp(), func() {
		h, err = startDaemon(cfg.Seed, daemonConfig{shards: cfg.Nproc})
	})
	if err != nil {
		return err
	}
	out.detail["daemon.start_ms"] = ms(start)
	recs, _ := h.load(cfg.Nproc, tracedSessionJobs, false)
	misses, sims := h.tally(ck, out, recs)
	l["cache.sims_per_miss"] = float64(sims) / float64(max(1, misses))

	var hitLat, missLat, submitHit, submitMiss, fetch, queueWait, running []float64
	hits, ok := 0, 0
	for _, r := range recs {
		op := tr.newOp()
		if r.rejected {
			tr.record("http.submit", 0, op, r.start, r.submitted)
			continue
		}
		if !r.ok {
			continue
		}
		ok++
		root := tr.record("daemon.job", 0, op, r.start, r.fetched)
		tr.record("http.submit", root, op, r.start, r.submitted)
		stream := tr.record("http.stream", root, op, r.submitted, r.waited)
		tr.record("http.fetch", root, op, r.waited, r.fetched)
		fetch = append(fetch, ms(r.fetched.Sub(r.waited)))
		if r.cacheHit {
			hits++
			hitLat = append(hitLat, ms(r.latency()))
			submitHit = append(submitHit, ms(r.submitted.Sub(r.start)))
			continue
		}
		missLat = append(missLat, ms(r.latency()))
		submitMiss = append(submitMiss, ms(r.submitted.Sub(r.start)))
		if !r.queued.IsZero() && !r.running.IsZero() && !r.done.IsZero() {
			tr.record("daemon.queue_wait", stream, op, r.queued, r.running)
			tr.record("daemon.run", stream, op, r.running, r.done)
			queueWait = append(queueWait, ms(r.running.Sub(r.queued)))
			running = append(running, ms(r.done.Sub(r.running)))
		}
	}
	hs, msum := summarize(hitLat), summarize(missLat)
	l["daemon.hit_p50_ms"], l["daemon.hit_p90_ms"] = hs.Median, hs.P90
	l["daemon.miss_p50_ms"], l["daemon.miss_p90_ms"] = msum.Median, msum.P90
	l["http.submit_hit_ms"], l["http.submit_miss_ms"] = median(submitHit), median(submitMiss)
	l["http.fetch_ms"] = median(fetch)
	l["daemon.queue_wait_ms"], l["daemon.run_ms"] = median(queueWait), median(running)
	l["cache.hit_ratio"] = float64(hits) / float64(max(1, ok))
	l["cache.lookups"] = float64(ok)
	h.close()

	// A session with a journal, then its replay: what a restarted daemon
	// pays to reopen it.
	if h, err = startDaemon(cfg.Seed, daemonConfig{shards: cfg.Nproc, journal: true}); err != nil {
		return err
	}
	recs, _ = h.load(cfg.Nproc, tracedSessionJobs/2, false)
	h.tally(ck, out, recs)
	jobs := len(recs) + h.primed
	l["journal.bytes_per_job"] = float64(h.journalBytes()) / float64(jobs)
	dir := h.dir
	h.dir = ""
	h.close()
	var srv *server.Server
	_, replay := tr.do("journal.replay", 0, tr.newOp(), func() {
		srv, err = server.New(server.Config{Shards: cfg.Nproc, Journal: dir})
	})
	if err == nil {
		ck.check(len(srv.Jobs()) == jobs, "journal replay restored %d jobs, want %d", len(srv.Jobs()), jobs)
		srv.Close()
	}
	os.RemoveAll(dir)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	l["journal.replay_ms"] = ms(replay)

	// Cache-hit submits with and without a journal: the append and fsync
	// under the server mutex is the difference.
	submitP50 := func(journal bool) (float64, error) {
		h, err := startDaemon(cfg.Seed, daemonConfig{shards: cfg.Nproc, journal: journal})
		if err != nil {
			return 0, err
		}
		defer h.close()
		recs, _ := h.load(cfg.Nproc, tracedSessionJobs, true)
		h.tally(ck, out, recs)
		var xs []float64
		for _, r := range recs {
			if r.ok {
				xs = append(xs, ms(r.submitted.Sub(r.start)))
			}
		}
		return median(xs), nil
	}
	with, err := submitP50(true)
	if err != nil {
		return err
	}
	without, err := submitP50(false)
	if err != nil {
		return err
	}
	l["journal.submit_cost_ms"] = with - without
	l["daemon.rejected"] = float64(out.rejected)

	// The exporters a miss carries by default, and the canonical hash every
	// submission pays.
	var perfetto, metricsJSON []float64
	for i := 0; i < 5; i++ {
		op := tr.newOp()
		h, err := runHand(genDaemonFresh(cfg.Seed, 1_000_000+i), nil, 0, tr, 0, op)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		_, d := tr.do("trace.perfetto", 0, op, func() {
			err = h.rec.WritePerfetto(&buf, trace.PerfettoOptions{Misses: h.cons.PerfettoMisses()})
		})
		if err != nil {
			return err
		}
		perfetto = append(perfetto, ms(d))
		buf.Reset()
		_, d = tr.do("metrics.json", 0, op, func() { err = h.reg.WriteJSON(&buf) })
		if err != nil {
			return err
		}
		metricsJSON = append(metricsJSON, ms(d))
	}
	l["trace.perfetto_ms"], l["metrics.json_ms"] = median(perfetto), median(metricsJSON)

	r := newRand(cfg.Seed, streamRespell+1000)
	var hashes []float64
	for i := 0; i < 200; i++ {
		idx := i % daemonHotSet
		doc := respell(genDaemonHot(cfg.Seed, idx), r)
		want, _ := scenario.HashBytes(genDaemonHot(cfg.Seed, idx))
		var got string
		_, d := tr.do("scenario.hash", 0, tr.newOp(), func() { _, got, err = scenario.Canonicalize(doc) })
		ck.check(err == nil && got == want, "respelled hot scenario %d hashes to %s, want %s", idx, got, want)
		hashes = append(hashes, float64(d.Nanoseconds())/1e3)
	}
	l["scenario.hash_us"] = median(hashes)
	return nil
}

// traceOverhead times the selected workload's end-to-end operation twice
// untraced and twice traced; the difference of the medians is the tracing
// overhead.
func traceOverhead(cfg config, ck *checker, tr *tracer, out *outcome, l layers) error {
	var untraced, traced []float64
	for i := 0; i < 2; i++ {
		switch cfg.Workload {
		case "soc_long", "soc_shards":
			data := genSoC(cfg.Seed)
			shards := 0
			if cfg.Workload == "soc_shards" {
				shards = cfg.Nproc
			}
			runtime.GC()
			start := time.Now()
			if _, err := runner.Run(data, runner.Options{Shards: shards}, "soc"); err != nil {
				return err
			}
			untraced = append(untraced, ms(time.Since(start)))
			runtime.GC()
			op := tr.newOp()
			var h *handRun
			var err error
			_, d := tr.do(cfg.Workload+".overhead", 0, op, func() {
				if h, err = runHand(data, nil, shards, tr, 0, op); err == nil {
					h.compose(tr, 0, op)
				}
			})
			if err != nil {
				return err
			}
			out.attempted += 2
			traced = append(traced, ms(d))
		case "sweep_wide":
			base, spec, nvar, err := sweepInputs(cfg)
			if err != nil {
				return err
			}
			runtime.GC()
			start := time.Now()
			plain, err := runner.Sweep(spec, base, runner.SweepOptions{Workers: cfg.Nproc})
			if err != nil {
				return err
			}
			untraced = append(untraced, ms(time.Since(start)))
			runtime.GC()
			op := tr.newOp()
			hooked, root, wall, spans, err := hookedSweep(cfg, tr, spec, base, "sweep_wide.overhead", op)
			if err != nil {
				return err
			}
			out.attempted += 2 * nvar
			out.failed += plain.Summary.Failures + hooked.Summary.Failures
			ck.check(plain.Summary.Failures+hooked.Summary.Failures == 0, "overhead sweeps had failing variants")
			for _, s := range spans {
				tr.record("batch.variant", root, op, s.start, s.end)
			}
			traced = append(traced, ms(wall))
		case "daemon_mix":
			// The daemon's timings come from the same records in both modes;
			// the traced session additionally turns them into spans.
			h, err := startDaemon(cfg.Seed, daemonConfig{shards: cfg.Nproc})
			if err != nil {
				return err
			}
			recs, _ := h.load(cfg.Nproc, tracedSessionJobs/2, false)
			h.tally(ck, out, recs)
			h.close()
			hits, _ := hitLatencies(recs)
			untraced = append(untraced, median(hits))
			h, err = startDaemon(cfg.Seed, daemonConfig{shards: cfg.Nproc})
			if err != nil {
				return err
			}
			recs, _ = h.load(cfg.Nproc, tracedSessionJobs/2, false)
			h.tally(ck, out, recs)
			h.close()
			op := tr.newOp()
			for _, r := range recs {
				if r.ok {
					tr.record("daemon.job", 0, op, r.start, r.fetched)
				}
			}
			hits, _ = hitLatencies(recs)
			traced = append(traced, median(hits))
		}
	}
	l["trace.overhead_ms"] = median(traced) - median(untraced)
	out.detail["overhead"] = map[string]any{"untraced_ms": untraced, "traced_ms": traced}
	return nil
}

// interval is one variant's span from the Lookup hook to the Store hook.
type interval struct{ start, end time.Time }

// hookedSweep runs one sweep with Lookup/Store hooks that time each
// variant (Lookup always misses, so every variant simulates).
func hookedSweep(cfg config, tr *tracer, spec *batch.Spec, base []byte, name string, op int) (
	res *runner.SweepResult, root int, wall time.Duration, spans []interval, err error) {
	var mu sync.Mutex
	starts := map[int]time.Time{}
	opts := runner.SweepOptions{Workers: cfg.Nproc,
		Lookup: func(v batch.Variant) (batch.Result, bool) {
			mu.Lock()
			starts[v.Index] = time.Now()
			mu.Unlock()
			return batch.Result{}, false
		},
		Store: func(v batch.Variant, _ batch.Result) {
			now := time.Now()
			mu.Lock()
			spans = append(spans, interval{starts[v.Index], now})
			mu.Unlock()
		},
	}
	root, wall = tr.do(name, 0, op, func() { res, err = runner.Sweep(spec, base, opts) })
	return res, root, wall, spans, err
}
