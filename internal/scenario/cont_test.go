package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// commRichJSON exercises every continuation-expressible op kind: queue
// put/get, tryput, shared lock/unlock/read/write, events, nopreempt regions,
// setprio, yield, repeat loops, execute_trace, an IRQ raised from a task, a
// watchdog kick and a hang fault recovered by the watchdog.
const commRichJSON = `{
	"name": "comm-rich",
	"horizon": "2ms",
	"processors": [{"name": "cpu", "overheads": {"scheduling": "1us", "contextSave": "1us", "contextLoad": "1us"}}],
	"events": [{"name": "go", "policy": "counter"}],
	"queues": [{"name": "q", "capacity": 2}],
	"shared": [{"name": "sv", "initial": 0, "inherit": true}],
	"traces": {"frames": ["8us", "12us", "5us"]},
	"irqs": [{"name": "rx", "processor": "cpu", "priority": 1, "latency": "2us", "body": [
		{"op": "execute", "for": "3us"}
	]}],
	"watchdogs": [{"name": "wd", "processor": "cpu", "timeout": "200us", "task": "worker"}],
	"tasks": [
		{"name": "worker", "processor": "cpu", "priority": 5, "period": "150us", "onMiss": "abort", "body": [
			{"op": "kick", "watchdog": "wd"},
			{"op": "execute_trace", "trace": "frames"},
			{"op": "lock", "shared": "sv"},
			{"op": "execute", "for": "4us"},
			{"op": "write", "shared": "sv", "value": 7},
			{"op": "unlock", "shared": "sv"},
			{"op": "tryput", "queue": "q", "value": 1},
			{"op": "signal", "event": "go"}
		]},
		{"name": "reader", "processor": "cpu", "priority": 4, "loop": true, "body": [
			{"op": "wait", "event": "go"},
			{"op": "read", "shared": "sv"},
			{"op": "repeat", "count": 2, "body": [
				{"op": "execute", "for": "6us"},
				{"op": "yield"}
			]}
		]},
		{"name": "drain", "processor": "cpu", "priority": 3, "loop": true, "body": [
			{"op": "get", "queue": "q"},
			{"op": "nopreempt_begin"},
			{"op": "execute", "for": "5us"},
			{"op": "nopreempt_end"},
			{"op": "setprio", "value": 3},
			{"op": "raise", "irq": "rx"},
			{"op": "delay", "for": "25us"}
		]}
	],
	"faults": [{"kind": "hang", "task": "worker", "at": "400us"}]
}`

// smpJitterJSON exercises continuation tasks on a two-core global-domain
// processor with release jitter and the threaded engine variant via replace.
const smpJitterJSON = `{
	"name": "smp-jitter",
	"horizon": "2ms",
	"processors": [{"name": "cpu", "engine": "procedural", "cores": 2, "domain": "global",
		"overheads": {"scheduling": "1us", "contextSave": "1us", "contextLoad": "1us"}}],
	"tasks": [
		{"name": "a", "processor": "cpu", "priority": 6, "period": "90us", "jitter": "9us", "body": [
			{"op": "execute", "for": "30us"}
		]},
		{"name": "b", "processor": "cpu", "priority": 5, "period": "120us", "body": [
			{"op": "execute", "for": "45us"},
			{"op": "delay", "for": "10us"},
			{"op": "execute", "for": "15us"}
		]},
		{"name": "c", "processor": "cpu", "priority": 4, "period": "200us", "onMiss": "skip_next", "body": [
			{"op": "execute", "for": "80us"}
		]}
	]
}`

// contGoldenScenarios are the scenario-layer goldens of the task driver,
// with the SHA-256 of their JSON trace export on each processor engine.
// The hashes were captured from the scenarios' continuation (Program) form
// before Go bodies moved onto the driver; the Go-body form already produced
// the same bytes on every single-core golden, and on smp-jitter/threaded
// differed only in the order of same-instant records of different cores.
// Every value of a task's engine field must now reproduce them exactly.
var contGoldenScenarios = []struct {
	name   string
	src    string
	hashes map[string]string
}{
	{"figure6", figure6JSON, map[string]string{
		"procedural": "8ea81db1c562da8a53495ed8a1c201c7db6ad0d79b463d8f2a3c4495b0a275cb",
		"threaded":   "8ea81db1c562da8a53495ed8a1c201c7db6ad0d79b463d8f2a3c4495b0a275cb",
	}},
	{"wcet-restart", faultScenarioJSON, map[string]string{
		"procedural": "aba464c31f55dbb789d48f715ae84ace52f3854e5b616293bc67fbd44e097059",
		"threaded":   "aba464c31f55dbb789d48f715ae84ace52f3854e5b616293bc67fbd44e097059",
	}},
	{"comm-rich", commRichJSON, map[string]string{
		"procedural": "8b4ae738d4d0331d90f074cd2defdf80734680ef6ef22ba149458dff7485030a",
		"threaded":   "8b4ae738d4d0331d90f074cd2defdf80734680ef6ef22ba149458dff7485030a",
	}},
	{"smp-jitter", smpJitterJSON, map[string]string{
		"procedural": "25cb43aaa0a7a40c34f9e5fb99c2692a017c4d5f532df386bbc0c80b777b7720",
		"threaded":   "a9f6df61b6f57ed3e8ef9c7054b61a843235f405c22ad3a431e8c7487da2d6ca",
	}},
}

// withEngine returns the scenario with every software task's body form set
// to the given engine value, via the parsed description (not string edits).
func withEngine(t *testing.T, src, engine string) *System {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Tasks {
		s.Tasks[i].Engine = engine
	}
	return s
}

// runScenario elaborates and runs a description, returning the built system,
// the SHA-256 of the raw trace export and the filtered rtos_* metrics
// serialization.
func runScenario(t *testing.T, s *System) (built *Built, traceHash, metricsKey string) {
	t.Helper()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	h := sha256.New()
	if err := b.Sys.Rec.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	var keep []json.RawMessage
	for _, m := range b.Sys.Metrics.Snapshot().Metrics {
		if !strings.HasPrefix(m.Name, "rtos_") || m.Name == "rtos_continuation_resumes_total" {
			continue
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, enc)
	}
	mk, err := json.Marshal(keep)
	if err != nil {
		t.Fatal(err)
	}
	return b, hex.EncodeToString(h.Sum(nil)), string(mk)
}

// TestContinuationGoldens is the scenario-level golden of the task driver:
// four canonical scenarios on both RTOS engines, with every accepted value
// of the task engine field, must produce the pinned trace export bytes and
// identical rtos_* metrics.
func TestContinuationGoldens(t *testing.T) {
	for _, g := range contGoldenScenarios {
		for _, eng := range []string{"procedural", "threaded"} {
			t.Run(g.name+"/"+eng, func(t *testing.T) {
				src := g.src
				if eng == "threaded" {
					src = forceProcessorEngine(t, src, "threaded")
				}
				var firstMet string
				for i, field := range []string{"", "goroutine", "continuation"} {
					_, hash, met := runScenario(t, withEngine(t, src, field))
					if hash != g.hashes[eng] {
						t.Errorf("engine field %q: trace export hash %s, want %s", field, hash, g.hashes[eng])
					}
					if i == 0 {
						firstMet = met
					} else if met != firstMet {
						t.Errorf("engine field %q: rtos_* metrics differ:\n %s\n %s", field, met, firstMet)
					}
				}
			})
		}
	}
}

// forceProcessorEngine re-parses the description with every processor set to
// the given RTOS engine.
func forceProcessorEngine(t *testing.T, src, engine string) string {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(src), &raw); err != nil {
		t.Fatal(err)
	}
	var procs []map[string]json.RawMessage
	if err := json.Unmarshal(raw["processors"], &procs); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		enc, _ := json.Marshal(engine)
		p["engine"] = enc
	}
	enc, err := json.Marshal(procs)
	if err != nil {
		t.Fatal(err)
	}
	raw["processors"] = enc
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestContinuationResumesCounted checks that a continuation-bodied scenario
// advances the rtos_continuation_resumes_total counter.
func TestContinuationResumesCounted(t *testing.T) {
	s := withEngine(t, figure6JSON, "continuation")
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	m, ok := b.Sys.Metrics.Snapshot().Get("rtos_continuation_resumes_total")
	if !ok {
		t.Fatal("rtos_continuation_resumes_total not registered")
	}
	if m.Value == 0 {
		t.Error("continuation scenario ran but the resume counter is zero")
	}
}

// TestContinuationEngineValidation covers the per-task engine field's
// validation: unknown values are rejected, and every accepted value parses
// with any body — bus channel ops included, now that every body runs on the
// task driver.
func TestContinuationEngineValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"unknown engine value",
			`{"processors":[{"name":"p"}],"tasks":[{"name":"t","processor":"p","engine":"fiber","body":[{"op":"execute","for":"1us"}]}]}`,
			`unknown engine "fiber"`,
		},
		{
			"continuation with send",
			`{"processors":[{"name":"p"}],"buses":[{"name":"bus"}],"channels":[{"name":"ch","bus":"bus","capacity":1}],
			 "tasks":[{"name":"t","processor":"p","engine":"continuation","body":[{"op":"send","channel":"ch","value":1}]}]}`,
			"",
		},
		{
			"continuation with recv inside repeat",
			`{"processors":[{"name":"p"}],"buses":[{"name":"bus"}],"channels":[{"name":"ch","bus":"bus","capacity":1}],
			 "tasks":[{"name":"t","processor":"p","engine":"continuation","body":[{"op":"repeat","count":2,"body":[{"op":"recv","channel":"ch"}]}]}]}`,
			"",
		},
		{
			"goroutine body keeps send",
			`{"processors":[{"name":"p"}],"buses":[{"name":"bus"}],"channels":[{"name":"ch","bus":"bus","capacity":1}],
			 "tasks":[{"name":"t","processor":"p","engine":"goroutine","body":[{"op":"send","channel":"ch","value":1}]}]}`,
			"",
		},
		{
			"continuation with affinity and fault",
			`{"processors":[{"name":"p","cores":2}],
			 "tasks":[{"name":"t","processor":"p","engine":"continuation","affinity":1,"period":"100us","body":[{"op":"execute","for":"10us"}]}],
			 "faults":[{"kind":"crash","task":"t","at":"50us"}]}`,
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestContinuationActivationsLower checks the paper's activation claim end
// to end at the scenario layer: task switches cost no kernel activation, so
// the procedural engine runs the task-only golden with none at all, while
// the threaded engine pays for its RTOS thread.
func TestContinuationActivationsLower(t *testing.T) {
	run := func(engine string) uint64 {
		b, err := Parse([]byte(forceProcessorEngine(t, smpJitterJSON, engine)))
		if err != nil {
			t.Fatal(err)
		}
		built, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		built.Run()
		return built.Sys.K.Activations()
	}
	p, th := run("procedural"), run("threaded")
	if p != 0 || th == 0 {
		t.Errorf("activations: procedural %d (want 0), threaded %d (want > 0)", p, th)
	}
}

// TestProgramBodiesStartFirst pins the start order the trace (and so the
// statistics' row order) follows: tasks whose plain bodies become Programs
// take their first step with the methods at elaboration, Go bodies where a
// thread would, after them — whatever their order in the description.
func TestProgramBodiesStartFirst(t *testing.T) {
	s, err := Parse([]byte(`{
		"horizon": "1ms",
		"processors": [{"name": "cpu"}],
		"events": [{"name": "go"}],
		"tasks": [
			{"name": "waiter", "processor": "cpu", "priority": 3, "body": [{"op": "wait", "event": "go"}]},
			{"name": "plain", "processor": "cpu", "priority": 2, "period": "100us", "body": [{"op": "execute", "for": "10us"}]},
			{"name": "looper", "processor": "cpu", "priority": 1, "loop": true, "body": [{"op": "execute", "for": "10us"}]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	if got, want := strings.Join(b.Sys.Rec.Tasks(), " "), "plain waiter looper"; got != want {
		t.Errorf("trace task order %q, want %q", got, want)
	}
}
