package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// runExample simulates one example scenario with every processor on the
// given engine and returns the built system.
func runExample(tb testing.TB, path, engine string) *scenario.Built {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	desc, err := scenario.Parse(data)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	for i := range desc.Processors {
		desc.Processors[i].Engine = engine
	}
	built, err := desc.Build()
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	if _, err := built.RunChecked(); err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return built
}

// exampleScenarios lists the example scenario files (sweep specs excluded).
func exampleScenarios(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no example scenarios: %v", err)
	}
	var out []string
	for _, f := range files {
		if !strings.Contains(filepath.Base(f), "sweep") {
			out = append(out, f)
		}
	}
	return out
}

// TestExportersMatchEncodingJSON runs every example scenario on both
// processor engines and holds the Perfetto and metrics JSON writers to the
// bytes encoding/json writes for the same trace and registry.
func TestExportersMatchEncodingJSON(t *testing.T) {
	for _, path := range exampleScenarios(t) {
		for _, engine := range []string{"procedural", "threaded"} {
			built := runExample(t, path, engine)
			name := filepath.Base(path) + "/" + engine
			opts := trace.PerfettoOptions{Misses: built.Sys.Constraints.PerfettoMisses()}

			var got, want bytes.Buffer
			if err := built.Sys.Rec.WritePerfetto(&got, opts); err != nil {
				t.Fatalf("%s: WritePerfetto: %v", name, err)
			}
			if err := trace.OracleWritePerfetto(built.Sys.Rec, &want, opts); err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: Perfetto export differs from encoding/json (%d vs %d bytes)", name, got.Len(), want.Len())
			}

			got.Reset()
			want.Reset()
			if err := built.Sys.Metrics.WriteJSON(&got); err != nil {
				t.Fatalf("%s: metrics WriteJSON: %v", name, err)
			}
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(built.Sys.Metrics.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: metrics JSON differs from encoding/json (%d vs %d bytes)", name, got.Len(), want.Len())
			}
		}
	}
}

// BenchmarkWritePerfetto exports the recorded trace of the soc_shards example
// (the largest example trace: four processors, bus transfers, overheads),
// run sequentially on the procedural engine.
func BenchmarkWritePerfetto(b *testing.B) {
	built := runExample(b, filepath.Join("..", "..", "examples", "scenarios", "soc_shards.json"), "procedural")
	opts := trace.PerfettoOptions{Misses: built.Sys.Constraints.PerfettoMisses()}
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := built.Sys.Rec.WritePerfetto(&buf, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
