package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The autoEngine scenario field is a compatibility input: it once chose
// between two task-body execution forms and now selects nothing, since
// every body runs on the task driver. These tests pin that a scenario runs
// identically whatever it says, on bodies of every kind.

// runForDiff parses, optionally sets autoEngine false, builds, runs, and
// returns the built system plus its full CSV trace and statistics report —
// the observables the tests compare.
func runForDiff(t *testing.T, data []byte, auto bool) (*Built, string, string) {
	t.Helper()
	desc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !auto {
		f := false
		desc.AutoEngine = &f
	}
	built, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.RunChecked(); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := built.Sys.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return built, csv.String(), built.Sys.Stats(0).String()
}

// A periodic scenario's trace and statistics are byte-identical with
// autoEngine absent and false.
func TestAutoEngineDifferentialGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "periodic_rm.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, autoCSV, autoStats := runForDiff(t, data, true)
	_, goCSV, goStats := runForDiff(t, data, false)
	if autoCSV != goCSV {
		t.Errorf("CSV traces differ with autoEngine false\nabsent:\n%s\nfalse:\n%s", autoCSV, goCSV)
	}
	if autoStats != goStats {
		t.Errorf("statistics differ with autoEngine false\nabsent:\n%s\nfalse:\n%s", autoStats, goStats)
	}
}

// Bodies the former engine selection treated apart (communication ops,
// loops, an explicit engine field, duration traces) run identically with
// autoEngine absent and false.

func TestAutoEngineSkipsUnlowerableBodies(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"comm op", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"events": [{"name": "go"}],
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "period": "100us",
				 "body": [{"op": "execute", "for": "10us"}, {"op": "signal", "event": "go"}]}
			]
		}`},
		{"loop body", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "loop": true,
				 "body": [{"op": "execute", "for": "10us"}, {"op": "delay", "for": "90us"}]}
			]
		}`},
		{"explicit goroutine", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "period": "100us",
				 "engine": "goroutine", "body": [{"op": "execute", "for": "10us"}]}
			]
		}`},
		{"trace body", `{
			"horizon": "1ms",
			"processors": [{"name": "cpu0"}],
			"traces": {"load": ["10us", "20us"]},
			"tasks": [
				{"name": "a", "processor": "cpu0", "priority": 2, "period": "100us",
				 "body": [{"op": "execute_trace", "trace": "load"}]}
			]
		}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, autoCSV, _ := runForDiff(t, []byte(tc.json), true)
			_, offCSV, _ := runForDiff(t, []byte(tc.json), false)
			if autoCSV == "" || autoCSV != offCSV {
				t.Errorf("CSV traces differ with autoEngine false\nabsent:\n%s\nfalse:\n%s", autoCSV, offCSV)
			}
		})
	}
}

func TestAutoEngineLowersMixedScenario(t *testing.T) {
	// A periodic task, a one-shot with repeat and a task blocked forever on
	// an event: the trace is the same with autoEngine absent and false.
	src := `{
		"horizon": "1ms",
		"processors": [{"name": "cpu0"}],
		"events": [{"name": "go"}],
		"tasks": [
			{"name": "beat", "processor": "cpu0", "priority": 4, "period": "200us",
			 "body": [
				{"op": "nopreempt_begin"},
				{"op": "execute", "for": "20us"},
				{"op": "nopreempt_end"},
				{"op": "yield"},
				{"op": "repeat", "count": 2, "body": [{"op": "execute", "for": "5us"}]}
			 ]},
			{"name": "once", "processor": "cpu0", "priority": 3, "repeat": 3,
			 "body": [{"op": "execute", "for": "10us"}, {"op": "delay", "for": "30us"}]},
			{"name": "waiter", "processor": "cpu0", "priority": 2,
			 "body": [{"op": "wait", "event": "go"}]}
		]
	}`
	_, autoCSV, _ := runForDiff(t, []byte(src), true)
	_, goCSV, _ := runForDiff(t, []byte(src), false)
	if autoCSV != goCSV {
		t.Errorf("CSV traces differ with autoEngine false\nabsent:\n%s\nfalse:\n%s", autoCSV, goCSV)
	}
}

// The ops that once made a body eligible for automatic lowering are the ops
// that now give it a Program form: plain ops only, also inside repeats.
func TestAutoLowerablePredicate(t *testing.T) {
	ok := []Op{
		{Op: "execute"}, {Op: "delay"}, {Op: "yield"},
		{Op: "nopreempt_begin"}, {Op: "nopreempt_end"}, {Op: "setprio"},
		{Op: "repeat", Body: []Op{{Op: "execute"}}},
	}
	if !plainOps(ok) {
		t.Error("plain op list rejected")
	}
	for _, bad := range []string{"wait", "signal", "put", "tryput", "get", "raise",
		"send", "recv", "submit", "lock", "unlock", "read", "write",
		"lat_start", "lat_stop", "kick", "execute_trace"} {
		if plainOps([]Op{{Op: "execute"}, {Op: bad}}) {
			t.Errorf("op %q accepted as plain", bad)
		}
		if plainOps([]Op{{Op: "repeat", Body: []Op{{Op: bad}}}}) {
			t.Errorf("op %q inside repeat accepted as plain", bad)
		}
	}
}
