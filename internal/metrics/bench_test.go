package metrics_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkRegistryWriteJSON exports the metrics registry of the soc_shards
// example (four processors: per-task, per-CPU and kernel instruments and
// their histograms) after a sequential run.
func BenchmarkRegistryWriteJSON(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "soc_shards.json"))
	if err != nil {
		b.Fatal(err)
	}
	desc, err := scenario.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	built, err := desc.Build()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := built.RunChecked(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := built.Sys.Metrics.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
