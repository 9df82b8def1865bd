package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// adversarialNames exercise every string escaping rule: HTML characters,
// quotes, backslashes, control bytes, U+2028/U+2029, invalid UTF-8 (also
// truncated at the end of a name) and non-ASCII text.
var adversarialNames = []string{
	"<b>&amp;</b>", `say "hi"`, `C:\dir\file`, "ctl\x00\x01\b\f\t\r\n\x1f\x7f",
	"ls\u2028ps\u2029", "bad\xff\xc3", "\xe2\x80", "h\u00e9llo \u2713 \U0001d11e",
}

// adversarialRecorder records tasks, processors and faults named by
// adversarialNames on multi-core processors and in the hardware process:
// Running slices (one reopened and left open at the end, one zero-length),
// overheads with and without a task, fault, recovery and watchdog instants,
// and core migrations.
func adversarialRecorder() *Recorder {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	at := func(t sim.Time) { clk.now = t }
	for i, name := range adversarialNames {
		cpu := adversarialNames[(i+1)%len(adversarialNames)]
		base := sim.Time(i) * 10 * sim.Us
		at(base)
		r.TaskStateOn(name, cpu, i%3, StateRunning)
		r.OverheadOn(cpu, name, i%3, OverheadKind(i%3), base, base+sim.Us+sim.Time(i))
		r.OverheadOn(cpu, "", i%3, OverheadScheduling, base, base)
		at(base + 3*sim.Us + 1)
		r.Fault(FaultEventKind(i%3), name, adversarialNames[len(adversarialNames)-1-i], name+" detail")
		r.Migrate(name, cpu, i%3, (i+1)%3)
		r.TaskStateOn(name, cpu, (i+1)%3, StateReady)
		at(base + 5*sim.Us)
		r.TaskStateOn(name, cpu, (i+1)%3, StateRunning)
		r.TaskStateOn(name, cpu, (i+1)%3, StateWaiting) // zero-length Running
		at(base + 7*sim.Us)
		r.TaskStateOn(name, "", 0, StateRunning) // hardware process
		at(base + 8*sim.Us)
		r.TaskStateOn(name, "", 0, StateWaiting)
	}
	// Reopened and still running when the trace ends.
	at(200 * sim.Us)
	r.TaskStateOn("tail", "cpu", 1, StateRunning)
	at(201 * sim.Us)
	r.TaskStateOn("tail", "cpu", 1, StateReady)
	at(202 * sim.Us)
	r.TaskStateOn("tail", "cpu", 1, StateRunning)
	r.Fault(WatchdogFired, "never-scheduled", "watchdog-restart", "")
	at(250 * sim.Us)
	r.Overhead("cpu", "tail", OverheadContextSave, 249*sim.Us, 250*sim.Us)
	return r
}

// checkPerfetto compares WritePerfetto with the encoding/json oracle.
func checkPerfetto(t *testing.T, name string, r *Recorder, opts PerfettoOptions) {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WritePerfetto(&got, opts); err != nil {
		t.Fatalf("%s: WritePerfetto: %v", name, err)
	}
	if err := oracleWritePerfetto(r, &want, opts); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: WritePerfetto differs from encoding/json (%d vs %d bytes)\ngot:\n%s\nwant:\n%s",
			name, got.Len(), want.Len(), got.Bytes(), want.Bytes())
	}
}

func TestPerfettoMatchesOracle(t *testing.T) {
	var misses []MissMark
	for i, name := range adversarialNames {
		misses = append(misses, MissMark{At: sim.Time(i) * 9 * sim.Us, Task: name})
	}
	misses = append(misses, MissMark{At: 3 * sim.Us, Task: "unknown task"})
	clk := &fakeClock{}

	checkPerfetto(t, "nil recorder", nil, PerfettoOptions{})
	checkPerfetto(t, "nil recorder with misses", nil, PerfettoOptions{Misses: misses})
	checkPerfetto(t, "empty trace", NewRecorder(clk.Now), PerfettoOptions{})
	checkPerfetto(t, "empty trace with misses", NewRecorder(clk.Now), PerfettoOptions{Misses: misses})
	checkPerfetto(t, "adversarial", adversarialRecorder(), PerfettoOptions{})
	checkPerfetto(t, "adversarial with misses", adversarialRecorder(), PerfettoOptions{Misses: misses})
}

// TestPerfettoFinalSliceOnce is the regression test for the end-of-trace
// close: a task that ran in several intervals and is still running when the
// trace ends gets one slice per interval, its final one included once.
func TestPerfettoFinalSliceOnce(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	for i := sim.Time(0); i < 3; i++ {
		clk.now = i * 10 * sim.Us
		r.TaskStateOn("busy", "cpu", 0, StateRunning)
		if i < 2 {
			clk.now += 5 * sim.Us
			r.TaskStateOn("busy", "cpu", 0, StateReady)
		}
	}
	clk.now = 30 * sim.Us
	r.Overhead("cpu", "", OverheadScheduling, 29*sim.Us, 30*sim.Us)
	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf, PerfettoOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Cat  string
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var slices []string
	for _, e := range doc.TraceEvents {
		if e.Cat == "task" && e.Name == "busy" {
			slices = append(slices, fmt.Sprintf("%g+%g", e.Ts, e.Dur))
		}
	}
	if got, want := strings.Join(slices, " "), "0+5 10+5 20+10"; got != want {
		t.Fatalf("busy slices %q, want %q", got, want)
	}
	checkPerfetto(t, "final slice", r, PerfettoOptions{})
}

// OracleWritePerfetto exposes the oracle to the external tests that run the
// example scenarios.
var OracleWritePerfetto = oracleWritePerfetto

// FuzzAppendUsec holds the integer microsecond formatter to encoding/json's
// encoding of the same float, across the 1e15 ps switch to the float path.
func FuzzAppendUsec(f *testing.F) {
	for _, t := range []int64{0, 1, -1, 10, 999_999, 1_000_000, 1_500_000, 123_456_789, -2_000_001,
		999_999_999_999_999, -999_999_999_999_999, 1e15, -1e15, 1e15 + 1, 1<<53 + 1, math.MaxInt64, math.MinInt64} {
		f.Add(t)
	}
	f.Fuzz(func(t *testing.T, ps int64) {
		want, err := json.Marshal(usec(sim.Time(ps)))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendUsec(nil, sim.Time(ps)); !bytes.Equal(got, want) {
			t.Fatalf("appendUsec(%d) = %s, encoding/json = %s", ps, got, want)
		}
	})
}
