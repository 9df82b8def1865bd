package trace

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// StateChange is one task state transition.
type StateChange struct {
	At    sim.Time
	Task  string
	CPU   string // empty for hardware tasks
	Core  int    // core of the task's most recent dispatch; 0 on single-core CPUs
	State TaskState
}

// Migration is one task dispatch onto a different core than the previous
// one (multi-core global scheduling domain).
type Migration struct {
	At   sim.Time
	Task string
	CPU  string
	From int
	To   int
}

// OverheadSegment is one completed RTOS overhead interval on a processor.
type OverheadSegment struct {
	CPU   string
	Task  string // task saved/loaded; empty for a pure scheduling decision
	Core  int    // core the overhead was charged on; 0 on single-core CPUs
	Kind  OverheadKind
	Start sim.Time
	End   sim.Time
}

// Access is one interaction with a communication relation.
type Access struct {
	At     sim.Time
	Actor  string
	Object string
	Kind   AccessKind
}

// DepthSample is a change of a relation's occupancy (queue depth, lock
// holder count) used to compute utilization ratios.
type DepthSample struct {
	At       sim.Time
	Object   string
	Depth    int
	Capacity int
}

// FaultRecord is one fault-subsystem event: a fault injection, a recovery
// action, or a watchdog expiry.
type FaultRecord struct {
	At sim.Time
	// Kind classifies the event.
	Kind FaultEventKind
	// Task is the affected task (or the watchdog name for WatchdogFired).
	Task string
	// Label is a short machine-matchable identifier of the fault or
	// recovery action, e.g. "wcet-overrun", "crash", "miss-restart",
	// "watchdog-restart". The fault-tolerance metrics aggregate on it.
	Label string
	// Detail is a free-form human-readable elaboration.
	Detail string
}

// Recorder observes the execution of a simulated system. As records arrive
// it folds them into running statistics (per-task state times, per-core and
// per-processor load, per-object occupancy and access counts), so
// ComputeStats, CoreStats, Tasks, Objects and End answer without a pass over
// the trace. Storing the record streams themselves is a separate choice:
// NewRecorder stores them (timelines, chronologies, exporters, Signature and
// ComputeStats over an earlier window read them); SetStore(false) keeps only
// the fold, so a run that reports aggregates allocates nothing per record.
// Fault events are always stored: they are few and the fault report reads
// them.
//
// All methods are safe to call on a nil Recorder (they do nothing), so model
// code can trace unconditionally; a system built without a recorder records
// nothing and pays one nil check per call site.
//
// A Recorder is bound to a simulation clock at construction; record methods
// timestamp with the current simulated time.
//
// The stored trace grows with the simulation: every record is one append.
type Recorder struct {
	now func() sim.Time
	// store keeps the record streams below (faults excepted: they are
	// stored regardless).
	store bool

	changes    []StateChange
	overheads  []OverheadSegment
	accesses   []Access
	depths     []DepthSample
	faults     []FaultRecord
	migrations []Migration

	fold
}

// NewRecorder creates a recorder reading timestamps from now (typically
// kernel.Now). It stores the trace; see SetStore.
func NewRecorder(now func() sim.Time) *Recorder {
	return &Recorder{now: now, store: true, fold: newFold()}
}

// SetStore turns storage of the record streams on or off. With storage off
// the recorder keeps only the statistics fold (and fault events); every
// output that reads individual records then refuses with ErrNotStored
// instead of rendering an empty trace. Call it before anything is recorded.
func (r *Recorder) SetStore(on bool) {
	if r == nil {
		return
	}
	if !on && len(r.changes)+len(r.overheads)+len(r.accesses)+len(r.depths)+len(r.migrations) > 0 {
		panic("trace: SetStore(false) after records were stored")
	}
	r.store = on
}

// Stores reports whether the recorder stores the record streams.
func (r *Recorder) Stores() bool { return r != nil && r.store }

// ErrNotStored is the reason outputs that read individual trace records
// refuse to run on a recorder that only folds statistics.
var ErrNotStored = errors.New("trace: the recorder did not store the trace (statistics only)")

// needStored refuses op on a recorder that did not store the trace.
func (r *Recorder) needStored(op string) error {
	if r != nil && !r.store {
		return fmt.Errorf("%s: %w", op, ErrNotStored)
	}
	return nil
}

// mustStore is needStored for outputs without an error result.
func (r *Recorder) mustStore(op string) {
	if err := r.needStored(op); err != nil {
		panic(err)
	}
}

// Now returns the recorder's current timestamp source value.
func (r *Recorder) Now() sim.Time {
	if r == nil {
		return 0
	}
	return r.now()
}

// TaskState records that task (on cpu, empty for hardware) entered state,
// on core 0. Multi-core callers use TaskStateOn.
func (r *Recorder) TaskState(task, cpu string, state TaskState) {
	r.TaskStateOn(task, cpu, 0, state)
}

// TaskStateOn records that task entered state on the given core of cpu.
func (r *Recorder) TaskStateOn(task, cpu string, core int, state TaskState) {
	if r == nil {
		return
	}
	at := r.now()
	r.change(r.listTask(task), at, cpu, core, state)
	if r.store {
		r.changes = append(r.changes, StateChange{At: at, Task: task, CPU: cpu, Core: core, State: state})
	}
}

// Migrate records that task's dispatch moved it from one core of cpu to
// another.
func (r *Recorder) Migrate(task, cpu string, from, to int) {
	if r == nil {
		return
	}
	at := r.now()
	r.migrate(cpu, to, at)
	if r.store {
		r.migrations = append(r.migrations, Migration{
			At: at, Task: task, CPU: cpu, From: from, To: to,
		})
	}
}

// Migrations returns the stored core migrations in chronological order (nil
// when the recorder does not store).
func (r *Recorder) Migrations() []Migration {
	if r == nil {
		return nil
	}
	return r.migrations
}

// Overhead records a completed RTOS overhead interval on core 0. Multi-core
// callers use OverheadOn.
func (r *Recorder) Overhead(cpu, task string, kind OverheadKind, start, end sim.Time) {
	r.OverheadOn(cpu, task, 0, kind, start, end)
}

// OverheadOn records a completed RTOS overhead interval on the given core.
func (r *Recorder) OverheadOn(cpu, task string, core int, kind OverheadKind, start, end sim.Time) {
	if r == nil {
		return
	}
	r.overhead(cpu, task, kind, start, end)
	if r.store {
		r.overheads = append(r.overheads, OverheadSegment{
			CPU: cpu, Task: task, Core: core, Kind: kind, Start: start, End: end,
		})
	}
}

// Access records an interaction between actor and a communication object.
func (r *Recorder) Access(actor, object string, kind AccessKind) {
	if r == nil {
		return
	}
	at := r.now()
	r.access(object, kind, at)
	if r.store {
		r.accesses = append(r.accesses, Access{At: at, Actor: actor, Object: object, Kind: kind})
	}
}

// Fault records a fault-subsystem event (fault injection, recovery action,
// watchdog expiry) against a task. Fault events are stored whether or not
// the recorder stores the rest of the trace.
func (r *Recorder) Fault(kind FaultEventKind, task, label, detail string) {
	if r == nil {
		return
	}
	at := r.now()
	r.advance(at)
	r.faults = append(r.faults, FaultRecord{
		At: at, Kind: kind, Task: task, Label: label, Detail: detail,
	})
}

// FaultEvents returns all recorded fault-subsystem events in chronological
// order.
func (r *Recorder) FaultEvents() []FaultRecord {
	if r == nil {
		return nil
	}
	return r.faults
}

// Depth records a change of object's occupancy.
func (r *Recorder) Depth(object string, depth, capacity int) {
	if r == nil {
		return
	}
	at := r.now()
	r.depth(object, depth, capacity, at)
	if r.store {
		r.depths = append(r.depths, DepthSample{At: at, Object: object, Depth: depth, Capacity: capacity})
	}
}

// Tasks returns the names of all traced tasks in first-appearance order, in
// a new slice (nil when there are none).
func (r *Recorder) Tasks() []string {
	if r == nil || len(r.taskRows) == 0 {
		return nil
	}
	names := make([]string, len(r.taskRows))
	for i := range r.taskRows {
		names[i] = r.taskRows[i].name
	}
	return names
}

// Objects returns the names of all traced communication objects in
// first-appearance order, in a new slice (nil when there are none).
func (r *Recorder) Objects() []string {
	if r == nil || len(r.objRows) == 0 {
		return nil
	}
	names := make([]string, len(r.objRows))
	for i := range r.objRows {
		names[i] = r.objRows[i].name
	}
	return names
}

// StateChanges returns the stored state changes in chronological order (nil
// when the recorder does not store).
func (r *Recorder) StateChanges() []StateChange {
	if r == nil {
		return nil
	}
	return r.changes
}

// Overheads returns the stored overhead segments (nil when the recorder
// does not store).
func (r *Recorder) Overheads() []OverheadSegment {
	if r == nil {
		return nil
	}
	return r.overheads
}

// Accesses returns the stored communication accesses (nil when the recorder
// does not store).
func (r *Recorder) Accesses() []Access {
	if r == nil {
		return nil
	}
	return r.accesses
}

// Depths returns the stored occupancy samples (nil when the recorder does
// not store).
func (r *Recorder) Depths() []DepthSample {
	if r == nil {
		return nil
	}
	return r.depths
}

// Segment is a maximal interval during which a task stayed in one state.
// Core identifies the core a Running segment executed on (0 on single-core
// processors and for non-running states).
type Segment struct {
	Task  string
	State TaskState
	Core  int
	Start sim.Time
	End   sim.Time
}

// Segments reconstructs the state intervals of one task from its recorded
// transitions, closing the final segment at end. Transitions after end are
// ignored; an empty slice is returned for unknown tasks.
func (r *Recorder) Segments(task string, end sim.Time) []Segment {
	if r == nil {
		return nil
	}
	r.mustStore("Segments")
	var segs []Segment
	var cur *StateChange
	for i := range r.changes {
		c := &r.changes[i]
		if c.Task != task || c.At > end {
			continue
		}
		if cur != nil && c.At > cur.At {
			segs = append(segs, Segment{Task: task, State: cur.State, Core: cur.Core, Start: cur.At, End: c.At})
		}
		cur = c
	}
	if cur != nil && cur.At < end {
		segs = append(segs, Segment{Task: task, State: cur.State, Core: cur.Core, Start: cur.At, End: end})
	}
	return segs
}

// StateAt returns the state task was in at instant t (the state set by the
// latest transition at or before t), and false if the task had no transition
// yet at t.
func (r *Recorder) StateAt(task string, t sim.Time) (TaskState, bool) {
	if r == nil {
		return 0, false
	}
	r.mustStore("StateAt")
	state, found := TaskState(0), false
	for i := range r.changes {
		c := &r.changes[i]
		if c.Task != task {
			continue
		}
		if c.At > t {
			break
		}
		state, found = c.State, true
	}
	return state, found
}

// End returns the timestamp of the last recorded item, i.e. the natural end
// of the observation window.
func (r *Recorder) End() sim.Time {
	if r == nil {
		return 0
	}
	return r.end
}

// SortedTasks returns the task names sorted lexicographically; useful for
// stable report output.
func (r *Recorder) SortedTasks() []string {
	names := r.Tasks()
	sort.Strings(names)
	return names
}
