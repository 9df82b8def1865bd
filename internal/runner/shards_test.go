package runner

import (
	"bytes"
	"strings"
	"testing"
)

// The partition-of-one configuration must reproduce the sequential engine
// byte-identically: same report bytes, same artifact bytes, same outcome —
// across both processor engines, both timed-queue backends, and fault
// injection. The parallel driver runs the very same
// elaboration (BuildShard with one group falls through to the sequential
// build), so any divergence here is a bug in the engine or the runner's
// shared composition path.
func TestSingleShardByteIdenticalToSequential(t *testing.T) {
	scenarios := []string{
		"figure6.json", "periodic_rm.json", "soc_bus.json",
		"producer_consumer.json", "faults.json", "interrupt.json",
		"continuation.json", "smp.json", "inversion.json",
	}
	variants := []struct {
		label string
		opts  Options
	}{
		{"default", Options{}},
		{"full-report", Options{Timeline: true, Chronology: true, Analyze: true,
			Artifacts: []string{"csv", "vcd", "json", "svg", "perfetto", "metrics", "prom"}}},
		{"threaded", Options{Engine: "threaded", Artifacts: []string{"csv", "metrics"}}},
		{"chronology", Options{Chronology: true}},
	}
	for _, name := range scenarios {
		data := readScenario(t, name)
		for _, v := range variants {
			seqOpts, parOpts := v.opts, v.opts
			parOpts.Shards = 1
			seq, err := Run(data, seqOpts, name)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, v.label, err)
			}
			par, err := Run(data, parOpts, name)
			if err != nil {
				t.Fatalf("%s/%s shards=1: %v", name, v.label, err)
			}
			if !bytes.Equal(seq.Report, par.Report) {
				t.Errorf("%s/%s: report bytes differ\n--- sequential ---\n%s\n--- shards=1 ---\n%s",
					name, v.label, seq.Report, par.Report)
			}
			for _, a := range v.opts.Artifacts {
				if !bytes.Equal(seq.Artifacts[a], par.Artifacts[a]) {
					t.Errorf("%s/%s: artifact %s differs (%d vs %d bytes)",
						name, v.label, a, len(seq.Artifacts[a]), len(par.Artifacts[a]))
				}
			}
			if seq.SimError != par.SimError || seq.Finish != par.Finish || seq.End != par.End {
				t.Errorf("%s/%s: outcome differs: sequential (%v, %s, %q), shards=1 (%v, %s, %q)",
					name, v.label, seq.End, seq.Finish, seq.SimError, par.End, par.Finish, par.SimError)
			}
			if seq.Activations != par.Activations || seq.DeltaCycles != par.DeltaCycles {
				t.Errorf("%s/%s: effort differs: %d/%d vs %d/%d", name, v.label,
					seq.Activations, seq.DeltaCycles, par.Activations, par.DeltaCycles)
			}
		}
	}
}

// A scenario carrying the legacy timedQueue key (it selects nothing since the
// kernel has one timed queue) must load and stay byte-identical under
// shards=1.
func TestSingleShardByteIdenticalHeapBackend(t *testing.T) {
	data := readScenario(t, "figure6.json")
	heap := bytes.Replace(data, []byte(`"name": "figure6",`),
		[]byte(`"name": "figure6", "timedQueue": "heap",`), 1)
	if bytes.Equal(heap, data) {
		t.Fatal("fixture edit did not apply")
	}
	opts := Options{Timeline: true, Artifacts: []string{"csv", "perfetto", "metrics"}}
	seq, err := Run(heap, opts, "figure6-heap")
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 1
	par, err := Run(heap, opts, "figure6-heap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Report, par.Report) {
		t.Errorf("heap backend: report bytes differ")
	}
	for a := range seq.Artifacts {
		if !bytes.Equal(seq.Artifacts[a], par.Artifacts[a]) {
			t.Errorf("heap backend: artifact %s differs", a)
		}
	}
}

// A labeled scenario opts into the parallel engine without any Shards
// option; the run must succeed and report the union of both shards.
func TestShardLabelsSelectParallelEngine(t *testing.T) {
	js := `{
  "name": "labeled",
  "horizon": "100us",
  "processors": [
    {"name": "p1", "shard": "front"},
    {"name": "p2", "shard": "back"}
  ],
  "buses": [{"name": "noc", "perByte": "10ns", "arbitration": "100ns"}],
  "channels": [{"name": "data", "bus": "noc", "capacity": 16, "messageBytes": 8}],
  "tasks": [
    {"name": "producer", "processor": "p1", "priority": 5, "repeat": 10, "body": [
      {"op": "execute", "for": "900ns"},
      {"op": "send", "channel": "data", "value": 1}
    ]},
    {"name": "consumer", "processor": "p2", "priority": 5, "repeat": 10, "body": [
      {"op": "recv", "channel": "data"},
      {"op": "execute", "for": "1300ns"}
    ]}
  ]
}`
	res, err := Run([]byte(js), Options{Artifacts: []string{"csv", "metrics"}}, "labeled")
	if err != nil {
		t.Fatal(err)
	}
	if res.SimError != "" {
		t.Fatalf("simulation error: %s", res.SimError)
	}
	report := string(res.Report)
	for _, task := range []string{"producer", "consumer"} {
		if !strings.Contains(report, task) {
			t.Errorf("report does not mention %s:\n%s", task, report)
		}
	}
	csv := string(res.Artifacts["csv"])
	if !strings.Contains(csv, "producer") || !strings.Contains(csv, "consumer") {
		t.Errorf("merged csv artifact incomplete")
	}
}

// The -shards flag on an unlabeled scenario partitions automatically; the
// parallel report must agree with the sequential one on the end time and
// the constraint verdict even when traces interleave differently.
func TestShardsOptionOnUnlabeledScenario(t *testing.T) {
	data := readScenario(t, "soc_bus.json")
	seq, err := Run(data, Options{}, "soc_bus.json")
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(data, Options{Shards: 2}, "soc_bus.json")
	if err != nil {
		t.Fatal(err)
	}
	if par.SimError != seq.SimError {
		t.Fatalf("sim error differs: %q vs %q", seq.SimError, par.SimError)
	}
	if par.End != seq.End || par.Finish != seq.Finish {
		t.Errorf("outcome differs: sequential (%v, %s), shards=2 (%v, %s)",
			seq.End, seq.Finish, par.End, par.Finish)
	}
	if par.ConstraintsOK != seq.ConstraintsOK {
		t.Errorf("constraint verdict differs")
	}
}
