package explore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

func readScenario(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runScenario simulates one scenario on the given engine, optionally with an
// identity chooser installed at both choice points, and returns the
// chronology and the equivalence signature.
func runScenario(t *testing.T, base []byte, engine string, withChooser bool) (string, string) {
	t.Helper()
	desc, err := scenario.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	if engine != "" {
		for i := range desc.Processors {
			desc.Processors[i].Engine = engine
		}
	}
	built, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if withChooser {
		ch := newChooser(newFootprints(desc), 3, 24, nil, nil, nil)
		built.Sys.K.SetTimedPermuter(ch)
		built.Sys.SetReleaseJitterHook(ch.jitterFor)
	}
	if _, err := built.RunChecked(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return built.Sys.Chronology(), trace.Signature(built.Sys.Rec, built.Sys.Now())
}

// TestIdentityChooserMatchesSeedRuns is the identity-permutation
// differential: with the chooser installed but every decision at its
// default, the run must be byte-identical (chronology and signature) to the
// plain seed run — on both engines, over the golden-pinned scenarios.
func TestIdentityChooserMatchesSeedRuns(t *testing.T) {
	scenarios := []string{"figure6.json", "figure7.json", "smp.json", "faults.json"}
	for _, name := range scenarios {
		base := readScenario(t, name)
		for _, engine := range []string{"procedural", "threaded"} {
			chron, sig := runScenario(t, base, engine, false)
			chronC, sigC := runScenario(t, base, engine, true)
			if chron != chronC {
				t.Errorf("%s/%s: identity chooser changed the chronology", name, engine)
			}
			if sig != sigC {
				t.Errorf("%s/%s: identity chooser changed the signature", name, engine)
			}
		}
	}
}

// TestExploreFindsSeededWatchdogViolation runs the full engine on the
// fault-injection scenario: release jitter within the declared bound can
// starve the watchdog, and the exploration must find that, minimize the
// trace, and verify its replay.
func TestExploreFindsSeededWatchdogViolation(t *testing.T) {
	eng, err := New(readScenario(t, "faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	eng.Cfg.MaxRuns = 64
	eng.Cfg.Workers = 2
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("no violation found")
	}
	v := sum.Violations[0]
	if v.Kind != "watchdog" || v.Subject != "wd" {
		t.Fatalf("violation = %+v, want watchdog wd", v)
	}
	if !v.Replayed {
		t.Fatalf("violation replay not verified: %+v", v)
	}

	// The emitted trace must decode and deterministically reproduce the
	// violation, including under the scenario's fault injection.
	tr, err := Decode(v.Trace)
	if err != nil {
		t.Fatalf("emitted trace does not decode: %v", err)
	}
	r1, v1, err := eng.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	r2, v2, err := eng.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == nil || v2 == nil || v1.Kind != "watchdog" || v2.Kind != "watchdog" {
		t.Fatalf("replays did not reproduce the violation: %+v, %+v", v1, v2)
	}
	if r1.Trace.trimmed().Encode() != r2.Trace.trimmed().Encode() {
		t.Fatal("two replays produced different decision logs")
	}
	if r1.Sig != r2.Sig {
		t.Fatal("two replays produced different trace signatures")
	}
}

// TestExploreFindsInversionViolation checks the priority-inversion
// invariant end to end on the inversion scenario: the jitter perturbation
// that lands the medium task inside the low task's critical section must be
// found and its minimized trace must replay.
func TestExploreFindsInversionViolation(t *testing.T) {
	eng, err := New(readScenario(t, "inversion.json"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("no violation found")
	}
	v := sum.Violations[0]
	if v.Kind != "inversion" || v.Subject != "hi" {
		t.Fatalf("violation = %+v, want inversion of task hi", v)
	}
	if !v.Replayed {
		t.Fatalf("violation replay not verified: %+v", v)
	}
	if !strings.Contains(v.Detail, "priority inversion") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

// TestExploreWorkerCountInvariant pins that the exploration is independent
// of the worker pool size: serial and parallel searches must find the same
// violations with the same traces and counts.
func TestExploreWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *Summary {
		eng, err := New(readScenario(t, "inversion.json"))
		if err != nil {
			t.Fatal(err)
		}
		eng.Cfg.Workers = workers
		sum, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	serial, parallel := run(1), run(4)
	if serial.Explored != parallel.Explored || len(serial.Violations) != len(parallel.Violations) {
		t.Fatalf("serial explored %d/%d violations, parallel %d/%d",
			serial.Explored, len(serial.Violations), parallel.Explored, len(parallel.Violations))
	}
	for i := range serial.Violations {
		if serial.Violations[i].Trace != parallel.Violations[i].Trace {
			t.Fatalf("violation %d traces differ: %q vs %q",
				i, serial.Violations[i].Trace, parallel.Violations[i].Trace)
		}
	}
}

// TestExploreCrossEngineCheck runs the engine-equivalence invariant: every
// explored interleaving replayed on the other RTOS engine must produce the
// same trace signature. The seed scenarios satisfy it, so no divergence may
// be reported.
func TestExploreCrossEngineCheck(t *testing.T) {
	eng, err := New(readScenario(t, "inversion.json"))
	if err != nil {
		t.Fatal(err)
	}
	eng.Cfg.MaxRuns = 8
	eng.Cfg.MaxInversion = 0 // isolate the engine check
	eng.Cfg.CheckEngines = true
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.EngineRuns != sum.Explored {
		t.Fatalf("engine runs = %d, explored = %d", sum.EngineRuns, sum.Explored)
	}
	for _, v := range sum.Violations {
		if v.Kind == "engine-divergence" {
			t.Fatalf("spurious engine divergence: %+v", v)
		}
	}
}

// TestDPORPruningReducesScheduleSpace checks the commutativity analysis on a
// two-processor scenario: same-instant actions on unrelated processors
// commute, so the pruned alternative count must be strictly below the naive
// factorial count.
func TestDPORPruningReducesScheduleSpace(t *testing.T) {
	eng, err := New(readScenario(t, "soc_bus.json"))
	if err != nil {
		t.Fatal(err)
	}
	eng.Cfg.MaxRuns = 8
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.naiveAlts <= sum.Stats.dporAlts {
		t.Fatalf("pruning did not reduce the schedule space: naive %d, pruned %d",
			sum.Stats.naiveAlts, sum.Stats.dporAlts)
	}
	if sum.Stats.dporAlts == 0 {
		t.Fatal("no alternatives counted")
	}
}

// TestFootprintGroups pins the conflict analysis: tasks on different
// processors commute, tasks sharing a comm object do not, and unknown
// owners conflict with everything.
func TestFootprintGroups(t *testing.T) {
	desc, err := scenario.Parse([]byte(`{
		"processors": [{"name": "a"}, {"name": "b"}],
		"events": [{"name": "ev"}],
		"tasks": [
			{"name": "t1", "processor": "a", "body": [{"op": "execute", "for": "1us"}]},
			{"name": "t2", "processor": "b", "body": [{"op": "execute", "for": "1us"}]},
			{"name": "t3", "processor": "b", "body": [{"op": "signal", "event": "ev"}]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fp := newFootprints(desc)
	groups := func(names ...string) [][]int {
		acts := make([]sim.TimedAction, len(names))
		for i, n := range names {
			acts[i] = sim.TimedAction{Name: n, IsProc: true}
		}
		return fp.groups(acts)
	}
	// Disjoint processors: two groups.
	if gs := groups("t1.delay", "t2.delay"); len(gs) != 2 {
		t.Fatalf("disjoint processors grouped: %v", gs)
	}
	// Same processor: one group.
	if gs := groups("t2.delay", "t3.delay"); len(gs) != 1 {
		t.Fatalf("same-processor tasks split: %v", gs)
	}
	// The event waiter conflicts with the signaller through ev even across
	// processors.
	if gs := groups("t1.delay", "ev"); len(gs) != 2 {
		t.Fatalf("unrelated event grouped with task: %v", gs)
	}
	if gs := groups("t3.delay", "ev"); len(gs) != 1 {
		t.Fatalf("event and its signaller split: %v", gs)
	}
	// Unknown owners conflict with everything: soundness fallback.
	if gs := groups("t1.delay", "mystery", "t2.delay"); len(gs) != 1 {
		t.Fatalf("unknown owner did not force one group: %v", gs)
	}
}
