package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// heldOutSeed is never used while tuning the benchmark; the tests use it to
// show the checks hold beyond the seeds the generators were shaped on.
const heldOutSeed = 7919

func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) []byte{
		"soc":   func(s uint64) []byte { return genSoC(s) },
		"wide":  func(s uint64) []byte { return genWide(s, defaultWide, "wide", streamWide) },
		"hot":   func(s uint64) []byte { return genDaemonHot(s, 1) },
		"fresh": func(s uint64) []byte { return genDaemonFresh(s, 3) },
	}
	for name, gen := range gens {
		a, b := gen(heldOutSeed), gen(heldOutSeed)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different bytes", name)
		}
		if bytes.Equal(a, gen(heldOutSeed+1)) {
			t.Errorf("%s: different seeds, same bytes", name)
		}
		if _, err := scenario.Parse(a); err != nil {
			t.Errorf("%s: generated scenario does not parse: %v", name, err)
		}
	}
	doc := genDaemonHot(heldOutSeed, 0)
	if !bytes.Equal(respell(doc, newRand(5, streamRespell)), respell(doc, newRand(5, streamRespell))) {
		t.Error("respell: same stream, different bytes")
	}
}

func TestRespellKeepsTheCanonicalHash(t *testing.T) {
	doc := genDaemonHot(heldOutSeed, 2)
	want, err := scenario.HashBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	r := newRand(heldOutSeed, streamRespell)
	for i := 0; i < 20; i++ {
		spelled := respell(doc, r)
		if bytes.Equal(spelled, doc) {
			t.Fatalf("respelling %d left the bytes unchanged", i)
		}
		if got, err := scenario.HashBytes(spelled); err != nil || got != want {
			t.Fatalf("respelling %d hashes to %s (%v), want %s", i, got, err, want)
		}
	}
}

// releases counts the periodic releases a scenario simulates.
func releases(t *testing.T, doc []byte) int64 {
	t.Helper()
	desc, err := scenario.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, task := range desc.Tasks {
		if p := task.Period.Time(); p > 0 {
			n += int64((desc.Horizon.Time()-task.StartAt.Time())/p) + 1
		}
	}
	return n
}

func TestSoCCostDoesNotDependOnTheSeed(t *testing.T) {
	want := releases(t, genSoC(1))
	for _, seed := range []uint64{2, 3, heldOutSeed} {
		got := releases(t, genSoC(seed))
		if math.Abs(float64(got-want)) > 0.001*float64(want) {
			t.Errorf("seed %d: %d periodic releases, seed 1 has %d", seed, got, want)
		}
	}
}

func TestSoCShardChannelsNeverFill(t *testing.T) {
	doc := genSoC(heldOutSeed)
	desc, err := scenario.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Every message on the pipeline starts at a periodic task's send: count
	// what those can emit within the horizon.
	var bound int64
	for _, task := range desc.Tasks {
		if p := task.Period.Time(); p > 0 {
			for _, op := range task.Body {
				if op.Op == "send" {
					bound += int64(desc.Horizon.Time()/p) + 1
				}
			}
		}
	}
	for n := 2; n <= min(max(2, runtime.NumCPU()), len(desc.Processors)); n++ {
		plan, err := desc.Partition(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Groups) != n {
			t.Errorf("Partition(%d) made %d groups", n, len(plan.Groups))
		}
		if len(plan.Links) == 0 {
			t.Errorf("Partition(%d) cut no channel", n)
		}
		for _, link := range plan.Links {
			for _, ch := range desc.Channels {
				if ch.Name == link.Channel && int64(ch.Capacity) < bound {
					t.Errorf("cut channel %s holds %d messages, the pipeline can send %d", ch.Name, ch.Capacity, bound)
				}
			}
		}
	}

	// The same, observed: no channel ever reaches its capacity.
	h, err := runHand(doc, nil, 0, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.rec.Depths() {
		if strings.HasPrefix(d.Object, "ch") && d.Depth >= d.Capacity {
			t.Fatalf("channel %s filled (%d/%d) at %v", d.Object, d.Depth, d.Capacity, d.At)
		}
	}
}

// deadlockDoc passes validation but cannot run: its only task waits on a
// queue nobody fills.
const deadlockDoc = `{"name": "stuck", "horizon": "1ms",
  "processors": [{"name": "cpu"}],
  "queues": [{"name": "q", "capacity": 1}],
  "tasks": [{"name": "t", "processor": "cpu", "priority": 1, "body": [{"op": "get", "queue": "q"}]}]}`

func TestFailRatioCountsRefusalsAndFailedJobs(t *testing.T) {
	// One shard with a one-job queue: more concurrent clients than it can
	// hold get 503s, which the client does not retry.
	h, err := startDaemon(heldOutSeed, daemonConfig{shards: 1, queueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	recs, _ := h.load(6, 10, false)
	stuck := h.job([]byte(deadlockDoc), false)
	if stuck.ok {
		t.Fatal("a deadlocking job passed its check")
	}
	recs = append(recs, stuck)

	out := newOutcome()
	ck := &checker{}
	h.tally(ck, out, recs)
	rejected := out.rejected
	if rejected == 0 {
		t.Fatal("no submission was refused; the test needs a full queue")
	}
	if out.failed != rejected+1 || out.attempted != len(recs) {
		t.Errorf("failed %d of %d, want %d refused + 1 failed of %d", out.failed, out.attempted, rejected, len(recs))
	}
	if len(ck.errs) != 1 || !strings.Contains(ck.errs[0], "did not simulate") {
		t.Errorf("checks failed: %q, want only the deadlocked job", ck.errs)
	}
}

func TestDaemonHarnessLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := startDaemon(heldOutSeed, daemonConfig{shards: 2, journal: true})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := h.load(2, 10, false)
	for _, r := range recs {
		if !r.ok {
			t.Fatalf("job failed: %s", r.err)
		}
	}
	h.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after close:\n%s", before, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(xs)
	if s.P25 != 2.75 || s.Median != 5.5 || s.P75 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v, want p25 2.75 median 5.5 p75 8.25", s)
	}
}

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "child", Start: 40, End: 80},
	}
	if got := tr.selfTimes()["parent"] * 1e6; math.Abs(got-30) > 1e-9 {
		t.Errorf("parent self time %v ns, want 30", got)
	}
}

// TestWorkloadsPassTheirChecks runs every workload briefly on the default
// seed (pinned statistics included) and on the held-out seed.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		for _, name := range workloadNames() {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				ck := &checker{}
				out, err := workloads[name](config{Workload: name, Seed: seed, Seconds: 0.01, Nproc: runtime.NumCPU()}, ck)
				if err != nil {
					t.Fatal(err)
				}
				if len(ck.errs) > 0 || out.failed > 0 || out.attempted == 0 {
					t.Errorf("%d/%d failed; checks: %q", out.failed, out.attempted, ck.errs)
				}
			})
		}
	}
}

// TestBenchmarkJSONDeclaresWhatRunsReport keeps BENCHMARK.json and the
// metric tables here in step.
func TestBenchmarkJSONDeclaresWhatRunsReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		got   []struct{ Name, Unit string }
		units map[string]string
	}{{"end_to_end", b.EndToEnd, endToEndUnits}, {"per_layer", b.PerLayer, layerUnits}} {
		if len(c.got) != len(c.units) {
			t.Errorf("%s declares %d metrics, runs report %d", c.kind, len(c.got), len(c.units))
		}
		for _, m := range c.got {
			if c.units[m.Name] != m.Unit {
				t.Errorf("%s %s: declared unit %q, reported %q", c.kind, m.Name, m.Unit, c.units[m.Name])
			}
		}
	}
}
