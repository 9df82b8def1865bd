package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/batch"
)

func readScenario(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunFigure6Report(t *testing.T) {
	data := readScenario(t, "figure6.json")
	res, err := Run(data, Options{}, "figure6.json")
	if err != nil {
		t.Fatal(err)
	}
	if res.SimError != "" {
		t.Fatalf("unexpected simulation error: %s", res.SimError)
	}
	if res.ExitCode() != 0 {
		t.Fatalf("exit code = %d, want 0", res.ExitCode())
	}
	report := string(res.Report)
	for _, want := range []string{
		"scenario figure6 simulated to",
		"kernel activations",
		"statistics",
		"constraints",
	} {
		if !strings.Contains(strings.ToLower(report), strings.ToLower(want)) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if res.Activations == 0 || res.DeltaCycles == 0 {
		t.Errorf("effort counters not populated: %+v", res)
	}
}

// The report must be deterministic: two runs of the same bytes and options
// produce byte-identical reports. The daemon's content-hash cache and the
// CLI/daemon byte-identity guarantee both rest on this.
func TestRunDeterministicBytes(t *testing.T) {
	for _, name := range []string{"figure6.json", "periodic_rm.json", "soc_bus.json"} {
		data := readScenario(t, name)
		opts := Options{Timeline: true, Chronology: true, Analyze: true,
			Artifacts: []string{"csv", "json", "perfetto"}}
		a, err := Run(data, opts, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Run(data, opts, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.Report, b.Report) {
			t.Errorf("%s: reports differ between identical runs", name)
		}
		for _, art := range opts.Artifacts {
			if !bytes.Equal(a.Artifacts[art], b.Artifacts[art]) {
				t.Errorf("%s: artifact %s differs between identical runs", name, art)
			}
		}
	}
}

func TestRunOptionOverrides(t *testing.T) {
	data := readScenario(t, "figure6.json")

	short, err := Run(data, Options{Until: "100us"}, "f")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(data, Options{}, "f")
	if err != nil {
		t.Fatal(err)
	}
	if short.End >= full.End {
		t.Errorf("until override did not shorten the run: %v vs %v", short.End, full.End)
	}

	if _, err := Run(data, Options{Engine: "quantum"}, "f"); err == nil {
		t.Error("bad engine override accepted")
	}
	if _, err := Run(data, Options{Until: "not-a-duration"}, "f"); err == nil {
		t.Error("bad until override accepted")
	}
	if _, err := Run(data, Options{Artifacts: []string{"pdf"}}, "f"); err == nil {
		t.Error("unknown artifact accepted")
	}
	if _, err := Run([]byte("{"), Options{}, "f"); err == nil {
		t.Error("malformed scenario accepted")
	}
}

func TestRunEngineEquivalence(t *testing.T) {
	data := readScenario(t, "figure6.json")
	proc, err := Run(data, Options{Engine: "procedural"}, "f")
	if err != nil {
		t.Fatal(err)
	}
	thr, err := Run(data, Options{Engine: "threaded"}, "f")
	if err != nil {
		t.Fatal(err)
	}
	if proc.End != thr.End || proc.ConstraintsOK != thr.ConstraintsOK {
		t.Errorf("engines disagree: procedural %v/%v, threaded %v/%v",
			proc.End, proc.ConstraintsOK, thr.End, thr.ConstraintsOK)
	}
}

func TestRunAllArtifacts(t *testing.T) {
	data := readScenario(t, "figure6.json")
	res, err := Run(data, Options{Artifacts: KnownArtifacts}, "f")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range KnownArtifacts {
		if len(res.Artifacts[a]) == 0 {
			t.Errorf("artifact %s is empty", a)
		}
	}
	names := res.ArtifactNames()
	if len(names) != len(KnownArtifacts) {
		t.Errorf("ArtifactNames = %v", names)
	}
	var buf bytes.Buffer
	if err := res.WriteArtifact(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WriteArtifact wrote nothing")
	}
	if err := res.WriteArtifact(&buf, "nope"); err == nil {
		t.Error("WriteArtifact accepted an unproduced artifact")
	}
}

func TestResultJSONShape(t *testing.T) {
	data := readScenario(t, "figure6.json")
	res, err := Run(data, Options{}, "f")
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "end", "finish", "activations", "constraintsOK"} {
		if _, ok := m[k]; !ok {
			t.Errorf("marshaled Result missing %q: %s", k, out)
		}
	}
	// Report and artifact bytes must NOT leak into the JSON status view.
	if _, ok := m["Report"]; ok {
		t.Error("Report leaked into Result JSON")
	}
}

func TestSweepRunsVariants(t *testing.T) {
	base := readScenario(t, "figure6.json")
	spec, err := batch.ParseSpec([]byte(`{
		"scenario": "figure6.json",
		"engines": ["procedural", "threaded"],
		"policies": ["priority"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	res, err := Sweep(spec, base, SweepOptions{Workers: 2, Progress: func(done, total int) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(res.Results))
	}
	if calls != 2 {
		t.Errorf("progress called %d times, want 2", calls)
	}
	if res.Canceled {
		t.Error("uncanceled sweep reported Canceled")
	}
	if res.ExitCode() != 0 {
		t.Errorf("exit code = %d, want 0 (summary: %+v)", res.ExitCode(), res.Summary)
	}
	report := string(res.Report)
	if !strings.Contains(report, "procedural") || !strings.Contains(report, "threaded") {
		t.Errorf("report missing variant rows:\n%s", report)
	}
	js, err := res.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var rows []batch.Result
	if err := json.Unmarshal(js, &rows); err != nil {
		t.Fatalf("ResultsJSON not valid JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("ResultsJSON has %d rows, want 2", len(rows))
	}

	noTable, err := Sweep(spec, base, SweepOptions{NoTable: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(noTable.Report) >= len(res.Report) {
		t.Error("NoTable did not shrink the report")
	}
}

func TestSweepBadBase(t *testing.T) {
	spec, err := batch.ParseSpec([]byte(`{"scenario": "x.json", "engines": ["procedural"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(spec, []byte("{"), SweepOptions{}); err == nil {
		t.Error("malformed base scenario accepted")
	}
}

func TestExploreFindsExpectedViolations(t *testing.T) {
	data := readScenario(t, "faults.json")
	res, err := Explore(data, ExploreOptions{Runs: 16, Workers: 2}, "faults.json")
	if err != nil {
		t.Fatal(err)
	}
	report := string(res.Report)
	if !strings.HasPrefix(report, "scenario ") {
		t.Errorf("report missing scenario header:\n%s", report)
	}
	if len(res.MetricsJSON) == 0 {
		t.Error("metrics JSON is empty")
	}
	var m map[string]any
	if err := json.Unmarshal(res.MetricsJSON, &m); err != nil {
		t.Errorf("metrics JSON invalid: %v", err)
	}
	if got, want := res.ExitCode(), 0; len(res.Summary.Violations) > 0 {
		want = 1
		if got != want {
			t.Errorf("exit code = %d, want %d", got, want)
		}
	} else if got != want {
		t.Errorf("exit code = %d, want %d", got, want)
	}
}

// TestArtifactsRetainNoSlack pins the memory a Result keeps for its
// artifacts: the daemon holds every artifact slice for the job's lifetime,
// so a buffer grown past its content (or pre-grown from a size estimate)
// would be retained slack. A streamed artifact's bytes.Buffer doubles from
// 64 bytes, so it keeps less than twice its length; the Perfetto and metrics
// writers hand over one whole document, which is allocated at its size.
func TestArtifactsRetainNoSlack(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(filepath.Base(f), "sweep") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(data, Options{Artifacts: KnownArtifacts}, filepath.Base(f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, a := range KnownArtifacts {
			if b := res.Artifacts[a]; cap(b) > 2*len(b) {
				t.Errorf("%s: %s artifact keeps cap %d for %d bytes", filepath.Base(f), a, cap(b), len(b))
			}
		}
	}
}

// TestActivationCountsPerEngine pins the kernel activations each processor
// engine pays on the shipped scenarios: the cost the paper's section 4
// compares. The threaded engine's RTOS thread pays one activation per resume
// of the switch sequence it hosts; the procedural engine runs the same
// sequence on the task drivers and pays none (what remains there is the
// hardware tasks). The report comparison masks activations, so this is the
// guard on the threaded engine's cost.
func TestActivationCountsPerEngine(t *testing.T) {
	for _, tc := range []struct {
		scenario             string
		procedural, threaded uint64
	}{
		{"figure6.json", 2, 32},
		{"periodic_rm.json", 0, 880},
		{"producer_consumer.json", 0, 148},
		{"continuation.json", 0, 317},
		{"soc_bus.json", 39, 666},
	} {
		data := readScenario(t, tc.scenario)
		for engine, want := range map[string]uint64{"procedural": tc.procedural, "threaded": tc.threaded} {
			res, err := Run(data, Options{Engine: engine, NoStats: true, NoConstraints: true}, tc.scenario)
			if err != nil {
				t.Fatalf("%s -engine %s: %v", tc.scenario, engine, err)
			}
			if res.Activations != want {
				t.Errorf("%s -engine %s: %d kernel activations, want %d", tc.scenario, engine, res.Activations, want)
			}
		}
	}
}
