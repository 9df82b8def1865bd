package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// fold is the online form of the trace statistics: every record updates it
// as it arrives, and stats or coreStats close the still-open intervals at a
// window end no earlier than the last record. ComputeStats over an earlier
// window replays the stored records into a fresh fold, so there is one
// implementation of the statistics, not a scan and a fold kept equal.
//
// Rows live in slices and refer to each other by index, so a system with a
// handful of tasks, objects and processors folds in a few up-front
// allocations and recording allocates nothing once every name was seen.
type fold struct {
	end sim.Time // latest timestamp recorded (overhead ends included)

	taskRows []taskFold // first-appearance order
	taskSet  map[string]int
	// unlisted holds overhead charged to tasks that have no state change
	// (yet); a task's first state change takes its share over.
	unlisted map[string]sim.Time

	objRows []objFold // first-appearance order
	objSet  map[string]int

	cpus    []cpuFold  // looked up by name, few enough for a linear search
	lastCPU int        // index of the processor found last
	cores   []coreFold // every processor's cores, in first-appearance order

	// depthSeq and accessSeq number depth samples and accesses; an object
	// keeps the numbers of its first ones so MergeRecorders can reproduce
	// the first-appearance order a merged trace would give.
	depthSeq, accessSeq uint64
}

// taskFold is one task's share of the fold.
type taskFold struct {
	name    string
	started bool     // a state change was folded
	first   sim.Time // time of the first state change
	at      sim.Time // time of the latest state change
	state   TaskState
	states  [numStates]sim.Time // closed time per state
	cpu     int                 // latest non-empty CPU (index into cpus), -1 none
	isr     bool                // interrupt pseudo-task: no core accounting

	activations, preemptions int
	overhead                 sim.Time // overhead segments charged to the task

	run      int      // core (index into cores) of the open Running interval, -1 none
	runAt    sim.Time // start of the open Running interval
	lastCore int      // core of the latest dispatch, -1 none
}

// cpuFold is one processor's share of the fold.
type cpuFold struct {
	name     string
	cores    int      // 1 + the highest core a state change named
	overhead sim.Time // summed overhead segment lengths
	loads    int      // context loads, i.e. context switches
	hasOv    bool
	ovFirst  sim.Time // earliest overhead start
	ovLast   sim.Time // latest overhead start
	// edgeLoads counts the context loads starting at ovLast: a window ending
	// there excludes them (they start at, not before, the window end).
	edgeLoads int
}

// coreFold is one core's load: the fold behind CoreStats.
type coreFold struct {
	cpu          int // index into cpus
	id           int
	busy         sim.Time // closed Running intervals
	dispatches   int
	lastDispatch sim.Time
	edge         int // dispatches at lastDispatch
	migrationsIn int
}

// objFold is one communication object's share of the fold.
type objFold struct {
	name            string
	at              sim.Time // latest depth sample
	depth, capacity int
	weighted        float64 // integral of depth/capacity dt up to at
	busy            sim.Time
	counts          [numAccessKinds]int

	// First depth sample and first access, as (time, sequence number);
	// hasDepth also says whether at/depth/capacity hold a sample.
	hasDepth, hasAccess  bool
	firstDepth, firstAcc sim.Time
	depthSeq, accessSeq  uint64
}

const (
	numStates      = int(StateTerminated) + 1
	numAccessKinds = int(AccessBlocked) + 1
	// rowsCap pre-sizes the row slices: typical systems fit without growth.
	rowsCap = 8
)

func newFold() fold {
	return fold{
		taskRows: make([]taskFold, 0, rowsCap),
		taskSet:  map[string]int{},
		objRows:  make([]objFold, 0, rowsCap),
		objSet:   map[string]int{},
		cpus:     make([]cpuFold, 0, rowsCap),
		cores:    make([]coreFold, 0, rowsCap),
	}
}

func (f *fold) advance(at sim.Time) {
	if at > f.end {
		f.end = at
	}
}

// listTask returns the row of the named task, adding it to Tasks.
func (f *fold) listTask(name string) int {
	i, ok := f.taskSet[name]
	if !ok {
		i = len(f.taskRows)
		f.taskSet[name] = i
		f.taskRows = append(f.taskRows, taskFold{name: name, cpu: -1, run: -1, lastCore: -1,
			isr: strings.HasPrefix(name, "isr:"), overhead: f.unlisted[name]})
		delete(f.unlisted, name)
	}
	return i
}

func (f *fold) object(name string) int {
	i, ok := f.objSet[name]
	if !ok {
		i = len(f.objRows)
		f.objSet[name] = i
		f.objRows = append(f.objRows, objFold{name: name})
	}
	return i
}

// findCPU returns the index of the named processor, -1 if absent.
func (f *fold) findCPU(name string) int {
	if i := f.lastCPU; i < len(f.cpus) && f.cpus[i].name == name {
		return i
	}
	for i := range f.cpus {
		if f.cpus[i].name == name {
			f.lastCPU = i
			return i
		}
	}
	return -1
}

// cpu returns the index of the named processor, adding it if absent.
func (f *fold) cpu(name string) int {
	i := f.findCPU(name)
	if i < 0 {
		i = len(f.cpus)
		f.cpus = append(f.cpus, cpuFold{name: name})
		f.lastCPU = i
	}
	return i
}

// core returns the index of core id of processor cpu, adding it if absent.
func (f *fold) core(cpu, id int) int {
	for i := range f.cores {
		if f.cores[i].cpu == cpu && f.cores[i].id == id {
			return i
		}
	}
	f.cores = append(f.cores, coreFold{cpu: cpu, id: id})
	return len(f.cores) - 1
}

// change folds a state change of task row ti. State changes arrive in time
// order.
func (f *fold) change(ti int, at sim.Time, cpu string, core int, state TaskState) {
	f.advance(at)
	tf := &f.taskRows[ti]
	if !tf.started {
		tf.started, tf.first = true, at
	} else if int(tf.state) < numStates {
		tf.states[tf.state] += at - tf.at
	}
	if state == StateRunning {
		tf.activations++
	}
	if tf.state == StateRunning && state == StateReady {
		tf.preemptions++
	}
	tf.at, tf.state = at, state
	if cpu == "" {
		return
	}
	if tf.cpu < 0 || f.cpus[tf.cpu].name != cpu {
		tf.cpu = f.cpu(cpu)
	}
	cf := &f.cpus[tf.cpu]
	cf.cores = max(cf.cores, core+1)
	if tf.isr {
		return
	}
	if tf.run >= 0 {
		if at > tf.runAt {
			f.cores[tf.run].busy += at - tf.runAt
		}
		tf.run = -1
	}
	if state == StateRunning {
		if tf.lastCore < 0 || f.cores[tf.lastCore].cpu != tf.cpu || f.cores[tf.lastCore].id != core {
			tf.lastCore = f.core(tf.cpu, core)
		}
		c := &f.cores[tf.lastCore]
		if c.dispatches > 0 && at == c.lastDispatch {
			c.edge++
		} else {
			c.lastDispatch, c.edge = at, 1
		}
		c.dispatches++
		tf.run, tf.runAt = tf.lastCore, at
	}
}

func (f *fold) overhead(cpu, task string, kind OverheadKind, start, end sim.Time) {
	f.advance(end)
	d := end - start
	ci := -1
	if task != "" {
		if ti, ok := f.taskSet[task]; ok {
			tf := &f.taskRows[ti]
			tf.overhead += d
			if tf.cpu >= 0 && f.cpus[tf.cpu].name == cpu {
				ci = tf.cpu
			}
		} else {
			if f.unlisted == nil {
				f.unlisted = map[string]sim.Time{}
			}
			f.unlisted[task] += d
		}
	}
	if ci < 0 {
		ci = f.cpu(cpu)
	}
	cf := &f.cpus[ci]
	cf.overhead += d
	if !cf.hasOv || start < cf.ovFirst {
		cf.ovFirst = start
	}
	if !cf.hasOv || start > cf.ovLast {
		cf.ovLast, cf.edgeLoads = start, 0
	}
	cf.hasOv = true
	if kind == OverheadContextLoad {
		cf.loads++
		if start == cf.ovLast {
			cf.edgeLoads++
		}
	}
}

func (f *fold) access(obj string, kind AccessKind, at sim.Time) {
	f.advance(at)
	of := &f.objRows[f.object(obj)]
	if !of.hasAccess {
		of.hasAccess, of.firstAcc, of.accessSeq = true, at, f.accessSeq
	}
	f.accessSeq++
	if int(kind) < numAccessKinds {
		of.counts[kind]++
	}
}

func (f *fold) depth(obj string, depth, capacity int, at sim.Time) {
	f.advance(at)
	of := &f.objRows[f.object(obj)]
	if of.hasDepth {
		of.integrate(at)
	} else {
		of.hasDepth, of.firstDepth, of.depthSeq = true, at, f.depthSeq
	}
	f.depthSeq++
	of.at, of.depth, of.capacity = at, depth, capacity
}

// integrate accumulates the latest depth sample's contribution up to t.
func (of *objFold) integrate(t sim.Time) {
	dt := t - of.at
	if of.capacity > 0 {
		of.weighted += float64(dt) * float64(of.depth) / float64(of.capacity)
	}
	if of.depth > 0 {
		of.busy += dt
	}
}

func (f *fold) migrate(cpu string, to int, at sim.Time) {
	f.advance(at)
	f.cores[f.core(f.cpu(cpu), to)].migrationsIn++
}

// stats closes the fold at end (no earlier than f.end) into a Stats report.
func (f *fold) stats(end sim.Time) Stats {
	st := Stats{Window: end}
	rows := make([]*ProcessorStats, len(f.cpus))
	row := func(ci int) *ProcessorStats {
		if rows[ci] == nil {
			rows[ci] = &ProcessorStats{CPU: f.cpus[ci].name, Window: end}
		}
		return rows[ci]
	}
	for i := range f.taskRows {
		tf := &f.taskRows[i]
		ts := tf.stats(end)
		if tf.cpu >= 0 {
			ts.CPU = f.cpus[tf.cpu].name
			row(tf.cpu).Busy += ts.Running
		}
		st.Tasks = append(st.Tasks, ts)
	}
	for ci := range f.cpus {
		// Overhead segments starting at or after end are outside the
		// window; with end >= f.end those can only be zero-length ones at
		// end itself.
		cf := &f.cpus[ci]
		if !cf.hasOv || cf.ovFirst >= end {
			continue
		}
		cs := row(ci)
		cs.Overhead += cf.overhead
		cs.ContextSwitches += cf.loads
		if cf.ovLast >= end {
			cs.ContextSwitches -= cf.edgeLoads
		}
	}
	for ci, cs := range rows {
		if cs == nil {
			continue
		}
		cs.Cores = max(1, f.cpus[ci].cores)
		cs.Idle = cs.capacity() - cs.Busy - cs.Overhead
		st.Processors = append(st.Processors, *cs)
	}
	sort.Slice(st.Processors, func(i, j int) bool { return st.Processors[i].CPU < st.Processors[j].CPU })

	for _, of := range f.objRows { // copies: closing the window leaves the fold open
		if of.hasDepth && of.at < end {
			of.integrate(end)
		}
		os := ObjectStats{Object: of.name, Window: end, Busy: of.busy}
		if end > 0 {
			os.Utilization = of.weighted / float64(end)
		}
		os.Signals = of.counts[AccessSignal]
		os.Sends = of.counts[AccessSend]
		os.Receives = of.counts[AccessReceive]
		os.Reads = of.counts[AccessRead]
		os.Writes = of.counts[AccessWrite]
		os.Blocks = of.counts[AccessBlocked]
		st.Objects = append(st.Objects, os)
	}
	return st
}

// stats closes one task's row at end; the caller fills in its CPU.
func (tf *taskFold) stats(end sim.Time) TaskStats {
	states := tf.states
	if tf.started && tf.at < end && int(tf.state) < numStates {
		states[tf.state] += end - tf.at
	}
	ts := TaskStats{
		Task: tf.name, Window: end,
		Running:         states[StateRunning],
		Ready:           states[StateReady],
		Waiting:         states[StateWaiting],
		WaitingResource: states[StateWaitingResource],
		Overhead:        states[StateOverhead] + tf.overhead,
		Inactive:        states[StateCreated] + states[StateTerminated],
		Activations:     tf.activations,
		Preemptions:     tf.preemptions,
	}
	// Time before the first transition is inactive too.
	if tf.started {
		ts.Inactive += tf.first
	} else {
		ts.Inactive += end
	}
	return ts
}

// CoreStats is one core's load over an observation window: the time
// application code ran on it, the dispatches landing on it and the
// dispatches that migrated a task onto it. Hardware tasks and interrupt
// pseudo-tasks ("isr:" names) contribute nothing.
type CoreStats struct {
	CPU          string
	Core         int
	Busy         sim.Time
	Dispatches   int
	MigrationsIn int
}

// CoreStats returns the per-core load of every processor over [0, end] (end
// zero: the trace end), sorted by processor name, then core id. A core
// appears once a dispatch before end or a migration by end landed on it.
func (r *Recorder) CoreStats(end sim.Time) []CoreStats {
	if r == nil {
		return nil
	}
	if end == 0 {
		end = r.End()
	}
	return r.foldAt("CoreStats", end).coreStats(end)
}

// coreStats closes the core rows at end (no earlier than f.end).
func (f *fold) coreStats(end sim.Time) []CoreStats {
	open := make([]sim.Time, len(f.cores))
	for i := range f.taskRows {
		if tf := &f.taskRows[i]; tf.run >= 0 && end > tf.runAt {
			open[tf.run] += end - tf.runAt
		}
	}
	var out []CoreStats
	for i := range f.cores {
		c := &f.cores[i]
		d := c.dispatches
		if d > 0 && c.lastDispatch >= end {
			d -= c.edge // dispatched at end: outside the window
		}
		if d == 0 && c.migrationsIn == 0 {
			continue
		}
		out = append(out, CoreStats{CPU: f.cpus[c.cpu].name, Core: c.id, Busy: c.busy + open[i],
			Dispatches: d, MigrationsIn: c.migrationsIn})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPU != out[j].CPU {
			return out[i].CPU < out[j].CPU
		}
		return out[i].Core < out[j].Core
	})
	return out
}

// foldAt returns a fold that can be closed at end: the live one when end is
// no earlier than the trace end, else the stored records up to end replayed
// into a fresh fold. op names the caller in the refusal when the records
// needed for the replay were not stored.
func (r *Recorder) foldAt(op string, end sim.Time) *fold {
	if end >= r.end {
		return &r.fold
	}
	r.mustStore(fmt.Sprintf("%s(%v) before the trace end %v", op, end, r.end))
	return r.replay(end)
}

// replay folds the stored records up to end into a fresh fold whose task
// and object orders are the recorder's.
func (r *Recorder) replay(end sim.Time) *fold {
	f := newFold()
	for i := range r.taskRows {
		f.listTask(r.taskRows[i].name)
	}
	for i := range r.objRows {
		f.object(r.objRows[i].name)
	}
	for i := range r.changes {
		c := &r.changes[i]
		if c.At > end {
			// Processor core counts span the whole trace.
			if c.CPU != "" {
				cf := &f.cpus[f.cpu(c.CPU)]
				cf.cores = max(cf.cores, c.Core+1)
			}
			continue
		}
		f.change(f.taskSet[c.Task], c.At, c.CPU, c.Core, c.State)
	}
	for i := range r.overheads {
		if o := &r.overheads[i]; o.Start < end {
			f.overhead(o.CPU, o.Task, o.Kind, o.Start, min(o.End, end))
		}
	}
	for i := range r.accesses {
		if a := &r.accesses[i]; a.At <= end {
			f.access(a.Object, a.Kind, a.At)
		}
	}
	for i := range r.depths {
		if d := &r.depths[i]; d.At <= end {
			f.depth(d.Object, d.Depth, d.Capacity, d.At)
		}
	}
	for i := range r.migrations {
		if m := &r.migrations[i]; m.At <= end {
			f.migrate(m.CPU, m.To, m.At)
		}
	}
	return &f
}

// mergeFolds combines per-shard folds into the fold of the whole system.
// Tasks, objects and processors are shard-local, so their rows are copied,
// and the first-appearance orders are those a time-ordered merge of the
// shards' record streams (ties in shard order) gives. A task, object or
// processor folded by two shards cannot be combined and panics with its
// name.
func mergeFolds(folds []*fold) fold {
	out := newFold()
	cpuBase := make([]int, len(folds))
	coreBase := make([]int, len(folds))
	for si, f := range folds {
		out.advance(f.end)
		cpuBase[si], coreBase[si] = len(out.cpus), len(out.cores)
		for _, cf := range f.cpus {
			if out.findCPU(cf.name) >= 0 {
				panic(fmt.Sprintf("trace: MergeRecorders: processor %q was recorded by two shards", cf.name))
			}
			out.cpus = append(out.cpus, cf)
		}
		for _, c := range f.cores {
			c.cpu += cpuBase[si]
			out.cores = append(out.cores, c)
		}
	}

	type firstSeen struct {
		shard, row int
		at         sim.Time
		cat        int    // objects: 0 first seen by a depth sample, 1 by an access
		seq        uint64 // shard index, then position in the shard's stream
	}
	var tasks, objects []firstSeen
	for si, f := range folds {
		for i := range f.taskRows {
			tasks = append(tasks, firstSeen{shard: si, row: i, at: f.taskRows[i].first})
		}
		shard := uint64(si) << 40
		for i := range f.objRows {
			of := &f.objRows[i]
			first := firstSeen{shard: si, row: i, at: of.firstAcc, cat: 1, seq: shard | of.accessSeq}
			if of.hasDepth && (!of.hasAccess || of.firstDepth <= of.firstAcc) {
				first = firstSeen{shard: si, row: i, at: of.firstDepth, seq: shard | of.depthSeq}
			}
			objects = append(objects, first)
		}
	}

	// Within a shard, rows are in first-appearance order already, so a
	// stable sort by time leaves ties in shard, then row order.
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].at < tasks[j].at })
	for _, t := range tasks {
		tf := folds[t.shard].taskRows[t.row]
		if _, dup := out.taskSet[tf.name]; dup {
			panic(fmt.Sprintf("trace: MergeRecorders: task %q was recorded by two shards", tf.name))
		}
		if tf.cpu >= 0 {
			tf.cpu += cpuBase[t.shard]
		}
		if tf.run >= 0 {
			tf.run += coreBase[t.shard]
		}
		tf.lastCore = -1 // a lookup cache, refilled on the next dispatch
		out.taskSet[tf.name] = len(out.taskRows)
		out.taskRows = append(out.taskRows, tf)
	}
	for _, f := range folds {
		for name, d := range f.unlisted {
			if i, ok := out.taskSet[name]; ok {
				out.taskRows[i].overhead += d
				continue
			}
			if out.unlisted == nil {
				out.unlisted = map[string]sim.Time{}
			}
			out.unlisted[name] += d
		}
	}

	sort.Slice(objects, func(i, j int) bool {
		a, b := objects[i], objects[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.cat != b.cat {
			return a.cat < b.cat
		}
		return a.seq < b.seq
	})
	for _, o := range objects {
		of := folds[o.shard].objRows[o.row]
		if _, dup := out.objSet[of.name]; dup {
			panic(fmt.Sprintf("trace: MergeRecorders: object %q was recorded by two shards", of.name))
		}
		out.objSet[of.name] = len(out.objRows)
		out.objRows = append(out.objRows, of)
	}
	return out
}
