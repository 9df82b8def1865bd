package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// event is one generated record: its timestamp and the call that makes it.
type event struct {
	at  sim.Time
	rec func(*Recorder)
}

// record plays a generated stream into a fresh recorder.
func record(evs []event, store bool) *Recorder {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	r.SetStore(store)
	for _, e := range evs {
		clk.now = e.at
		e.rec(r)
	}
	return r
}

// genStream generates a random chronological record stream whose task,
// processor and object names carry prefix; time advances by up to maxStep
// between records. It reaches the regimes where the fold can drift from a
// scan: same-instant transitions, multi-core processors with migrations,
// hardware and interrupt tasks, overheads that start before later-recorded
// items, zero-capacity relations, objects seen only by accesses or only by
// depth samples, and — at the final instant — a zero-length context load, a
// dispatch and a task's first transition.
func genStream(rng *rand.Rand, prefix string, maxStep int) []event {
	type cpuDef struct {
		name  string
		cores int
	}
	var cpus []cpuDef
	for i := 0; i <= rng.Intn(3); i++ {
		cpus = append(cpus, cpuDef{fmt.Sprintf("%scpu%d", prefix, i), 1 + rng.Intn(3)})
	}
	type taskDef struct {
		name string
		cpu  int // -1: hardware
	}
	var tasks []taskDef
	for i := 0; i < 2+rng.Intn(6); i++ {
		td := taskDef{name: fmt.Sprintf("%st%d", prefix, i), cpu: rng.Intn(len(cpus))}
		switch rng.Intn(6) {
		case 0:
			td.cpu = -1
		case 1:
			td.name = "isr:" + td.name
		}
		tasks = append(tasks, td)
	}
	// objects: 0 accessed and sampled, 1 accessed only, 2 sampled only.
	var objects []string
	var objKind []int
	for i := 0; i < 1+rng.Intn(5); i++ {
		objects = append(objects, fmt.Sprintf("%so%d", prefix, i))
		objKind = append(objKind, i%3)
	}

	var evs []event
	var now sim.Time
	add := func(f func(*Recorder)) { evs = append(evs, event{now, f}) }
	stateOn := func(td taskDef, state TaskState) {
		cpu, core := "", 0
		if td.cpu >= 0 {
			cpu, core = cpus[td.cpu].name, rng.Intn(cpus[td.cpu].cores)
		}
		name := td.name
		add(func(r *Recorder) { r.TaskStateOn(name, cpu, core, state) })
	}
	overhead := func(cpu cpuDef, kind OverheadKind, start sim.Time) {
		task := ""
		if rng.Intn(3) > 0 {
			task = tasks[rng.Intn(len(tasks))].name
		}
		core, end := rng.Intn(cpu.cores), now
		add(func(r *Recorder) { r.OverheadOn(cpu.name, task, core, kind, start, end) })
	}

	// Relations usually record their initial depth at creation, at time 0.
	if rng.Intn(2) == 0 {
		for i, obj := range objects {
			if objKind[i] != 1 {
				obj, capacity := obj, rng.Intn(4)
				add(func(r *Recorder) { r.Depth(obj, 0, capacity) })
			}
		}
	}
	for step := 0; step < 10+rng.Intn(150); step++ {
		if rng.Intn(3) > 0 { // else: same instant as the previous record
			now += sim.Time(1 + rng.Intn(maxStep))
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			stateOn(tasks[rng.Intn(len(tasks))], TaskState(rng.Intn(numStates)))
		case 4, 5:
			start := now
			if rng.Intn(2) == 0 {
				start -= sim.Time(rng.Intn(int(min(now, 30)) + 1))
			}
			overhead(cpus[rng.Intn(len(cpus))], OverheadKind(rng.Intn(3)), start)
		case 6:
			if i := rng.Intn(len(objects)); objKind[i] != 2 {
				obj, actor, kind := objects[i], tasks[rng.Intn(len(tasks))].name, AccessKind(rng.Intn(numAccessKinds))
				add(func(r *Recorder) { r.Access(actor, obj, kind) })
			}
		case 7:
			if i := rng.Intn(len(objects)); objKind[i] != 1 {
				obj, capacity := objects[i], rng.Intn(4)
				depth := rng.Intn(capacity + 2)
				add(func(r *Recorder) { r.Depth(obj, depth, capacity) })
			}
		case 8:
			cpu := cpus[rng.Intn(len(cpus))]
			task, from, to := tasks[rng.Intn(len(tasks))].name, rng.Intn(cpu.cores), rng.Intn(cpu.cores)
			add(func(r *Recorder) { r.Migrate(task, cpu.name, from, to) })
		case 9:
			task := tasks[rng.Intn(len(tasks))].name
			add(func(r *Recorder) { r.Fault(FaultInjected, task, "crash", "") })
		}
	}

	// The final instant.
	now += sim.Time(rng.Intn(3))
	if rng.Intn(2) == 0 {
		overhead(cpus[rng.Intn(len(cpus))], OverheadContextLoad, now)
	}
	if rng.Intn(2) == 0 {
		stateOn(tasks[rng.Intn(len(tasks))], StateRunning)
	}
	if rng.Intn(2) == 0 {
		cpu := rng.Intn(len(cpus))
		stateOn(taskDef{name: prefix + "late", cpu: cpu}, StateReady)
		stateOn(taskDef{name: prefix + "late", cpu: cpu}, StateRunning)
	}
	return evs
}

// checkAgainstOracle asserts ComputeStats and CoreStats equal the scan
// oracles of the stored trace s at end, for a recorder r folding the same
// records.
func checkAgainstOracle(t *testing.T, label string, r, s *Recorder, end sim.Time) {
	t.Helper()
	if got, want := r.ComputeStats(end), oracleStats(s, end); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ComputeStats(%v) differs from the scan\n--- fold ---\n%+v\n--- scan ---\n%+v", label, end, got, want)
	}
	if got, want := r.CoreStats(end), oracleCoreStats(s, end); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CoreStats(%v) differs from the scan\n--- fold ---\n%+v\n--- scan ---\n%+v", label, end, got, want)
	}
}

// TestFoldMatchesScan: on randomized record streams, the online fold
// (stored or not) answers every window end from the trace end onwards
// exactly as a scan of the stored trace, and replaying the stored trace
// answers every earlier end exactly as the scan.
func TestFoldMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := genStream(rng, "", 40)
		stored, folded := record(evs, true), record(evs, false)
		label := fmt.Sprintf("seed %d", seed)
		end := oracleEnd(stored)
		if stored.End() != end || folded.End() != end {
			t.Fatalf("%s: End() = %v stored, %v folded; scan %v", label, stored.End(), folded.End(), end)
		}
		if !reflect.DeepEqual(folded.Tasks(), stored.Tasks()) || !reflect.DeepEqual(folded.Objects(), stored.Objects()) {
			t.Fatalf("%s: first-appearance orders differ with storage off", label)
		}
		for _, e := range []sim.Time{0, end, end + 1, end + sim.Time(1+rng.Intn(100))} {
			checkAgainstOracle(t, label+" stored", stored, stored, e)
			checkAgainstOracle(t, label+" folded", folded, stored, e)
		}
		// Earlier ends: every recorded instant (and just after it) up to
		// the end, so windows close on same-instant batches too.
		for _, ev := range evs {
			for _, e := range []sim.Time{ev.at, ev.at + 1} {
				if e > 0 && e < end {
					checkAgainstOracle(t, label+" replay", stored, stored, e)
				}
			}
		}
		if got, want := stored.ReplayStats(0), oracleStats(stored, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ReplayStats(0) differs from the scan", label)
		}
	}
}

// TestMergedFoldMatchesScan: merging per-shard folds gives the statistics
// and first-appearance orders a scan of the time-merged stored trace gives,
// whether or not the shards stored their traces.
func TestMergedFoldMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var stored, folded []*Recorder
		for i := 0; i < 1+rng.Intn(4); i++ {
			// Short steps make the shards' records collide in time, so
			// the merge's tie order is exercised.
			evs := genStream(rng, fmt.Sprintf("s%d.", i), 3)
			stored = append(stored, record(evs, true))
			folded = append(folded, record(evs, false))
		}
		label := fmt.Sprintf("seed %d", seed)
		ms, mf := MergeRecorders(stored, 0), MergeRecorders(folded, 0)
		if mf.Stores() || !ms.Stores() {
			t.Fatalf("%s: merged storage = %v from storing shards, %v from folding shards", label, ms.Stores(), mf.Stores())
		}
		tasks, objects := oracleOrders(ms)
		for _, m := range []*Recorder{ms, mf} {
			if !reflect.DeepEqual(m.Tasks(), tasks) || !reflect.DeepEqual(m.Objects(), objects) {
				t.Fatalf("%s: merged orders\n tasks %v objects %v\nscan\n tasks %v objects %v",
					label, m.Tasks(), m.Objects(), tasks, objects)
			}
			if m.End() != oracleEnd(ms) {
				t.Fatalf("%s: merged End() = %v, scan %v", label, m.End(), oracleEnd(ms))
			}
		}
		end := ms.End()
		for _, e := range []sim.Time{0, end + 7} {
			checkAgainstOracle(t, label+" merged stored", ms, ms, e)
			checkAgainstOracle(t, label+" merged folded", mf, ms, e)
		}
		if end > 1 {
			checkAgainstOracle(t, label+" merged replay", ms, ms, end/2)
		}
		if !reflect.DeepEqual(mf.FaultEvents(), ms.FaultEvents()) {
			t.Fatalf("%s: merged fault events differ with storage off", label)
		}
	}
}

// mustPanic runs f and returns the panic value's text, failing when f
// returns normally.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		f()
		t.Fatalf("%s did not refuse", what)
	}()
	return msg
}

// TestUnstoredRecorderRefuses: every output that reads individual records
// fails with a named reason on a statistics-only recorder, instead of
// rendering an empty trace.
func TestUnstoredRecorderRefuses(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	r.SetStore(false)
	r.TaskState("t", "cpu", StateReady)
	clk.now = 10
	r.TaskState("t", "cpu", StateRunning)
	r.Overhead("cpu", "t", OverheadContextLoad, 5, 10)
	r.Fault(FaultInjected, "t", "crash", "")

	if len(r.StateChanges())+len(r.Overheads()) != 0 {
		t.Fatal("a statistics-only recorder stored records")
	}
	if len(r.FaultEvents()) != 1 {
		t.Fatal("fault events must be stored regardless")
	}
	if got := r.ComputeStats(0); len(got.Tasks) != 1 || got.Tasks[0].Running != 0 || got.Tasks[0].Ready != 10 {
		t.Fatalf("ComputeStats(0) on the fold = %+v", got)
	}
	for what, f := range map[string]func(){
		"ComputeStats":     func() { r.ComputeStats(5) },
		"CoreStats":        func() { r.CoreStats(5) },
		"ReplayStats":      func() { r.ReplayStats(0) },
		"RenderTimeline":   func() { r.RenderTimeline(TimelineOptions{}) },
		"RenderChronology": func() { r.RenderChronology() },
		"Signature":        func() { Signature(r, 10) },
		"Segments":         func() { r.Segments("t", 10) },
	} {
		if msg := mustPanic(t, what, f); !strings.Contains(msg, what) || !strings.Contains(msg, ErrNotStored.Error()) {
			t.Errorf("%s refused with %q, want its name and the reason", what, msg)
		}
	}
	for what, f := range map[string]func() error{
		"WriteCSV":      func() error { return r.WriteCSV(&bytes.Buffer{}) },
		"WriteVCD":      func() error { return r.WriteVCD(&bytes.Buffer{}) },
		"WriteJSON":     func() error { return r.WriteJSON(&bytes.Buffer{}) },
		"WriteSVG":      func() error { return r.WriteSVG(&bytes.Buffer{}, SVGOptions{}) },
		"WritePerfetto": func() error { return r.WritePerfetto(&bytes.Buffer{}, PerfettoOptions{}) },
	} {
		if err := f(); !errors.Is(err, ErrNotStored) || !strings.Contains(err.Error(), what) {
			t.Errorf("%s returned %v, want a named ErrNotStored", what, err)
		}
	}
	if msg := mustPanic(t, "SetStore(false) after records", func() {
		s := NewRecorder(clk.Now)
		s.TaskState("t", "cpu", StateReady)
		s.SetStore(false)
	}); !strings.Contains(msg, "SetStore") {
		t.Errorf("late SetStore(false) refused with %q", msg)
	}
}

// TestMergeRefusesSharedNames: a task or object folded by two shards cannot
// be merged; MergeRecorders names it.
func TestMergeRefusesSharedNames(t *testing.T) {
	clk := &fakeClock{}
	a, b := NewRecorder(clk.Now), NewRecorder(clk.Now)
	a.TaskState("t", "cpu0", StateReady)
	b.TaskState("t", "cpu1", StateReady)
	if msg := mustPanic(t, "merging a shared task", func() { MergeRecorders([]*Recorder{a, b}, 0) }); !strings.Contains(msg, `task "t"`) {
		t.Errorf("shared task refused with %q", msg)
	}
	c, d := NewRecorder(clk.Now), NewRecorder(clk.Now)
	c.Depth("q", 0, 1)
	d.Access("x", "q", AccessSend)
	if msg := mustPanic(t, "merging a shared object", func() { MergeRecorders([]*Recorder{c, d}, 0) }); !strings.Contains(msg, `object "q"`) {
		t.Errorf("shared object refused with %q", msg)
	}
}

// TestFoldDoesNotAllocatePerRecord: once every task, object, processor and
// core has been seen, recording into a statistics-only recorder allocates
// nothing.
func TestFoldDoesNotAllocatePerRecord(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.Now)
	r.SetStore(false)
	step := func() {
		clk.now++
		r.TaskStateOn("t", "cpu", 1, StateRunning)
		r.TaskStateOn("t", "cpu", 1, StateReady)
		r.OverheadOn("cpu", "t", 1, OverheadContextLoad, clk.now-1, clk.now)
		r.Access("t", "q", AccessSend)
		r.Depth("q", 1, 2)
		r.Migrate("t", "cpu", 0, 1)
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("statistics-only recording allocates %.1f times per step", n)
	}
}
