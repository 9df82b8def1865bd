package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
)

// scratchDir is where the benchmark keeps run-time files (journals, spans),
// inside the checkout it runs from.
const scratchDir = ".bench_build/perfbench"

// daemonHarness is an in-process rtossimd: a server.Server behind an
// httptest listener on loopback, driven through internal/client.
type daemonHarness struct {
	dir string // journal directory, "" when the server has none
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client

	seed       uint64
	hot        [][]byte // hot-set scenarios as generated
	hotReports [][]byte // each hot scenario's report from its first (miss) run
	horizon    scenario.Duration
	fresh      atomic.Int64 // next fresh-scenario index
	primed     int          // simulate jobs run while priming
}

// daemonConfig parameterizes startDaemon.
type daemonConfig struct {
	shards     int
	journal    bool
	queueDepth int // 0: server default
}

// startDaemon starts a server and primes its cache with the hot set (the
// first submission of each hot scenario is a miss).
func startDaemon(seed uint64, dc daemonConfig) (*daemonHarness, error) {
	h := &daemonHarness{seed: seed}
	cfg := server.Config{Shards: dc.shards, QueueDepth: dc.queueDepth}
	if dc.journal {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratchDir, "journal-")
		if err != nil {
			return nil, err
		}
		h.dir, cfg.Journal = dir, dir
	}
	srv, err := server.New(cfg)
	if err != nil {
		h.close()
		return nil, err
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	h.cl = client.New(h.ts.URL)
	h.cl.SubmitRetries = 0 // a queue-full 503 counts as a refused operation

	for i := 0; i < daemonHotSet; i++ {
		doc := genDaemonHot(seed, i)
		desc, err := scenario.Parse(doc)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("generated scenario: %w", err)
		}
		h.horizon = desc.Horizon
		rec := h.job(doc, false)
		if !rec.ok {
			h.close()
			return nil, fmt.Errorf("priming hot scenario %d: %s", i, rec.err)
		}
		h.hot = append(h.hot, doc)
		h.hotReports = append(h.hotReports, rec.report)
		h.primed++
	}
	return h, nil
}

// close stops the listener and the server, drops idle client connections
// and removes the journal directory (unless the caller took it by clearing
// h.dir).
func (h *daemonHarness) close() {
	if h.ts != nil {
		h.ts.Close()
	}
	if h.srv != nil {
		h.srv.Close()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}

// jobRecord is one client operation: submit, follow the stream to the
// terminal event, fetch the report.
type jobRecord struct {
	hit      bool // submitted as a hot-set resubmission
	freshIdx int
	ok       bool
	accepted bool // the daemon took the submission
	rejected bool // refused with 503
	err      string
	report   []byte
	cacheHit bool

	start, submitted, waited, fetched time.Time
	queued, running, done             time.Time // stream event times
}

func (r *jobRecord) latency() time.Duration { return r.fetched.Sub(r.start) }

// jobTimeout bounds how long a job may take from submission to its terminal
// event, so that a hung daemon fails the run instead of stalling it.
const jobTimeout = 30 * time.Second

// job runs one operation and checks its outcome. For hot-set jobs
// (expectHit) the report must equal the hot scenario's first report.
func (h *daemonHarness) job(doc []byte, expectHit bool) jobRecord {
	rec := jobRecord{hit: expectHit, start: time.Now()}
	job, err := h.cl.Submit(server.Request{Scenario: doc})
	rec.submitted = time.Now()
	if err != nil {
		rec.err = err.Error()
		rec.rejected = strings.Contains(rec.err, "(HTTP 503)")
		return rec
	}
	rec.accepted = true
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	final, err := h.cl.Wait(ctx, job.ID, func(ev server.Event) {
		switch ev.State {
		case server.StateQueued:
			rec.queued = ev.Time
		case server.StateRunning:
			if rec.running.IsZero() {
				rec.running = ev.Time
			}
		default:
			rec.done = ev.Time
		}
	})
	rec.waited = time.Now()
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	rec.report, err = h.cl.Report(job.ID)
	rec.fetched = time.Now()
	rec.cacheHit = final.CacheHit
	switch {
	case err != nil:
		rec.err = err.Error()
	case final.State != server.StateDone:
		rec.err = fmt.Sprintf("job %s ended %s: %s", job.ID, final.State, final.Error)
	case final.CacheHit != expectHit:
		rec.err = fmt.Sprintf("job %s cache hit %v, want %v", job.ID, final.CacheHit, expectHit)
	case final.Result == nil || final.Result.End != h.horizon.Time() || final.Result.Finish != "limit" ||
		final.Result.SimError != "":
		rec.err = fmt.Sprintf("job %s did not simulate to the horizon", job.ID)
	case !bytes.HasPrefix(rec.report, []byte("scenario ")):
		rec.err = fmt.Sprintf("job %s report is malformed", job.ID)
	default:
		rec.ok = true
	}
	return rec
}

// load drives the daemon with closed-loop clients, each running perClient
// jobs. Each client alternates a hot-set resubmission (respelled: reordered
// keys, new whitespace) with a fresh scenario, or only resubmits when
// hitsOnly is set. It returns the records and the wall time.
func (h *daemonHarness) load(clients, perClient int, hitsOnly bool) ([]jobRecord, time.Duration) {
	recs := make([][]jobRecord, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRand(h.seed, streamRespell+uint64(c))
			for k := 0; k < perClient; k++ {
				var rec jobRecord
				if hitsOnly || (k+c)%2 == 0 {
					idx := r.IntN(len(h.hot))
					rec = h.job(respell(h.hot[idx], r), true)
					if rec.ok && !bytes.Equal(rec.report, h.hotReports[idx]) {
						rec.ok, rec.err = false, fmt.Sprintf("hit report for hot scenario %d differs from its miss report", idx)
					}
				} else {
					i := int(h.fresh.Add(1))
					rec = h.job(genDaemonFresh(h.seed, i), false)
					rec.freshIdx = i
				}
				recs[c] = append(recs[c], rec)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []jobRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	return all, wall
}

// simulations reads rtossimd_simulations_total{kind="simulate"} from the
// daemon's /metrics endpoint.
func (h *daemonHarness) simulations() (int, error) {
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), `rtossimd_simulations_total{kind="simulate"} `); ok {
			return strconv.Atoi(strings.TrimSpace(rest))
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metrics: no rtossimd_simulations_total{kind=\"simulate\"}")
}

// journalBytes is the size of the server's journal file(s).
func (h *daemonHarness) journalBytes() int64 {
	var n int64
	filepath.WalkDir(h.dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// tally counts a load's operations into out and checks the daemon's
// bookkeeping: every accepted miss ran exactly one simulation and no hit
// ran any, and one fresh report per load matches a local runner.Run of the
// same scenario. It returns the successful misses and the simulations the
// daemon ran for the load.
func (h *daemonHarness) tally(ck *checker, out *outcome, recs []jobRecord) (misses, sims int) {
	checked := false
	ran := 0
	for _, r := range recs {
		out.attempted++
		if r.accepted && !r.cacheHit {
			ran++
		}
		if !r.ok {
			out.failed++
			if r.rejected {
				out.rejected++
			} else {
				ck.fail("daemon job: %s", r.err)
			}
			continue
		}
		if !r.hit {
			misses++
			if !checked {
				checked = true
				local, err := runner.Run(genDaemonFresh(h.seed, r.freshIdx),
					runner.Options{Artifacts: []string{"perfetto", "metrics"}}, "")
				ck.check(err == nil && bytes.Equal(local.Report, r.report),
					"fresh scenario %d: daemon report differs from runner.Run", r.freshIdx)
			}
		}
	}
	total, err := h.simulations()
	if ck.check(err == nil, "reading daemon metrics: %v", err) {
		sims = total - h.primed
		ck.check(sims == ran, "rtossimd_simulations_total = %d, want %d primed + %d misses", total, h.primed, ran)
	}
	return misses, sims
}

// hitLatencies splits successful records' submit→report latencies (ms).
func hitLatencies(recs []jobRecord) (hits, misses []float64) {
	for _, r := range recs {
		if !r.ok {
			continue
		}
		if r.hit {
			hits = append(hits, ms(r.latency()))
		} else {
			misses = append(misses, ms(r.latency()))
		}
	}
	return hits, misses
}

// sessionJobs is the number of jobs each client runs per daemon_mix
// session: about two seconds of load on a 2-core x86 host.
const sessionJobs = 250

// runDaemon measures daemon_mix: nproc closed-loop clients against an
// in-process daemon, half cache hits, half fresh misses. The daemon runs
// without a journal here: the journal's per-record fsync made job latency
// swing by 40% between runs on a shared 2-core host, so the journal is
// measured in the traced run instead (journal.* metrics).
// The daemon keeps every finished job, so the measurement is split into
// sessions of a fixed job count, each on a freshly started daemon: memory
// stays bounded by one session, and each session's start is one set-up
// sample. Sessions repeat until the run's seconds are spent.
func runDaemon(cfg config, ck *checker) (*outcome, error) {
	out := newOutcome()
	var setups, hits, misses, allocs, rss, users, syss []float64
	var wall, steal time.Duration
	var jobs, missed, sims int
	end := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for session := 0; session == 0 || time.Now().Before(end); session++ {
		resetPeakRSS()
		start := time.Now()
		h, err := startDaemon(cfg.Seed, daemonConfig{shards: cfg.Nproc})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if session == 0 {
			for i, doc := range h.hot {
				checkDaemonHot(cfg, ck, i, doc, h.hotReports[i])
			}
		}
		a0, s0 := totalAlloc(), stealTime()
		u0, k0 := cpuTimes()
		recs, w := h.load(cfg.Nproc, sessionJobs, false)
		n := float64(len(recs))
		allocs = append(allocs, float64(totalAlloc()-a0)/mib/n)
		u1, k1 := cpuTimes()
		users, syss = append(users, ms(u1-u0)/n), append(syss, ms(k1-k0)/n)
		wall, steal = wall+w, steal+stealTime()-s0
		m, s := h.tally(ck, out, recs)
		h.close()
		rss = append(rss, peakRSSMiB())
		missed, sims = missed+m, sims+s
		hl, ml := hitLatencies(recs)
		hits, misses = append(hits, hl...), append(misses, ml...)
		jobs += len(recs)
	}
	out.sample("setup_s", "s", setups)
	out.sample("user_cpu_ms", "ms", users)
	out.detail["sys_cpu_ms"] = summarize(syss)
	out.sample("peak_rss_mb", "MiB", rss)
	out.wallClock(append(hits, misses...), float64(jobs-out.failed)/wall.Seconds(), steal, wall*time.Duration(cfg.Nproc))
	out.detail["hit_ms"], out.detail["miss_ms"] = summarize(hits), summarize(misses)
	out.detail["cache.sims_per_miss"] = float64(sims) / float64(max(1, missed))
	out.sample("alloc_mb", "MiB", allocs)
	return out, nil
}

// checkDaemonHot checks a hot scenario's daemon report against the layers'
// statistics and, on the default seed, the pinned outcome.
func checkDaemonHot(cfg config, ck *checker, i int, doc, report []byte) {
	hr, err := runHand(doc, nil, 0, nil, 0, 0)
	if !ck.check(err == nil, "hot scenario %d: %v", i, err) {
		return
	}
	stats, sections := hr.compose(nil, 0, 0)
	ck.check(reportHas(report, sections), "hot scenario %d: daemon report lacks the layers' statistics", i)
	checkPinned(cfg, ck, fmt.Sprintf("daemon_hot_%d", i), hr.outcome(stats))
}
