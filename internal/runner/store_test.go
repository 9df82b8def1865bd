package runner

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// storesTrace is the storage decision: only outputs that read individual
// trace records turn storage on.
func TestStoresTraceOnlyForRecordReaders(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want bool
	}{
		{Options{}, false},
		{Options{Analyze: true, Artifacts: []string{"metrics", "prom"}}, false},
		{Options{Timeline: true}, true},
		{Options{Chronology: true}, true},
		{Options{Artifacts: []string{"metrics", "csv"}}, true},
		{Options{Artifacts: []string{"vcd"}}, true},
		{Options{Artifacts: []string{"json"}}, true},
		{Options{Artifacts: []string{"svg"}}, true},
		{Options{Artifacts: []string{"perfetto"}}, true},
	} {
		if got := storesTrace(c.opts); got != c.want {
			t.Errorf("storesTrace(%+v) = %v, want %v", c.opts, got, c.want)
		}
	}
}

// A statistics-only run reports exactly what a run that stores the trace
// reports, for every shipped scenario on both processor engines. The
// storing run asks for the JSON trace artifact, which is not part of the
// report.
func TestStatsOnlyReportMatchesStoredTrace(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	for _, file := range files {
		name := filepath.Base(file)
		if strings.Contains(name, "sweep") {
			continue // sweep specs, not scenarios
		}
		data := readScenario(t, name)
		for _, engine := range []string{"procedural", "threaded"} {
			opts := Options{Engine: engine}
			stored := opts
			stored.Artifacts = []string{"json"}
			a, err := Run(data, opts, name)
			if err != nil {
				t.Fatalf("%s %s: %v", name, engine, err)
			}
			b, err := Run(data, stored, name)
			if err != nil {
				t.Fatalf("%s %s storing: %v", name, engine, err)
			}
			if !bytes.Equal(a.Report, b.Report) {
				t.Errorf("%s %s: statistics-only report differs\n--- statistics only ---\n%s\n--- stored trace ---\n%s",
					name, engine, a.Report, b.Report)
			}
			if a.ExitCode() != b.ExitCode() {
				t.Errorf("%s %s: exit %d vs %d", name, engine, a.ExitCode(), b.ExitCode())
			}
		}
	}
}

// The decision reaches the systems execute builds, sharded ones included,
// and leaves the caller's description untouched.
func TestExecuteHonoursStorageDecision(t *testing.T) {
	for _, name := range []string{"figure6.json", "soc_shards.json"} {
		for _, opts := range []Options{{}, {Artifacts: []string{"perfetto"}}} {
			desc, err := Prepare(readScenario(t, name), opts)
			if err != nil {
				t.Fatal(err)
			}
			v, err := execute(desc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := v.rec.Stores(), storesTrace(opts); got != want {
				t.Errorf("%s %+v: recorder stores = %v, want %v", name, opts, got, want)
			}
			if desc.StatsOnly {
				t.Errorf("%s: execute changed the caller's description", name)
			}
		}
	}
}
