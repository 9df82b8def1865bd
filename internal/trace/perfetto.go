package trace

import (
	"cmp"
	"io"
	"slices"
	"strconv"

	"repro/internal/jsonw"
	"repro/internal/sim"
)

// This file exports the recorded trace in the Chrome trace_event JSON format,
// which the Perfetto UI (ui.perfetto.dev) and chrome://tracing both open.
//
// Mapping:
//   - each processor becomes one "process" (pid), each of its cores one
//     "thread" (tid = core+1), named by ph:"M" metadata events;
//   - hardware tasks share one extra "hardware" process with one thread per
//     task;
//   - every Running interval of a task becomes a complete slice (ph:"X") on
//     the core it executed on, every RTOS overhead interval a slice in the
//     "overhead" category;
//   - faults, deadline misses and core migrations become instant events
//     (ph:"i").
//
// Timestamps: trace_event wants microseconds, so ts = picoseconds / 1e6;
// displayTimeUnit "ns" makes the UI show nanosecond precision. Construction
// is fully deterministic (fixed pass order, stable sort), so identical runs
// produce byte-identical files — the golden test pins this.
//
// The document is written by hand in one pass, in exactly the bytes
// encoding/json's indented encoder produced for it (field order, omitempty,
// number and string formats); TestPerfettoMatchesOracle holds the two equal.

// MissMark is one deadline miss to mark in the exported trace. Misses are
// detected by the constraint monitor above the trace layer, so the exporter
// receives them as options.
type MissMark struct {
	At   sim.Time
	Task string
}

// PerfettoOptions parameterizes WritePerfetto.
type PerfettoOptions struct {
	// Misses are deadline-miss instants to mark (rtos.System passes the
	// constraint monitor's deadline violations).
	Misses []MissMark
}

// perfettoKind says which record a perfettoEvent renders: the slice kinds
// (ph:"X") come first, the instant kinds (ph:"i") after pfOverhead.
type perfettoKind uint8

const (
	pfTask      perfettoKind = iota // Running slice opened by r.changes[src]
	pfOverhead                      // overhead slice r.overheads[src]
	pfFault                         // fault instant r.faults[src]
	pfMigration                     // migration instant r.migrations[src]
	pfMiss                          // deadline-miss instant opts.Misses[src]
)

// perfettoEvent is one slice or instant in compact form. It names the record
// it renders instead of copying its strings, so building and sorting the
// event list moves small fixed-size values; the writer reads names and args
// from the record.
type perfettoEvent struct {
	ts   float64  // usec of the start: the sort key
	dur  sim.Time // slices only
	src  int32
	pid  int32
	tid  int32
	kind perfettoKind
}

// perfettoThread is one named (pid, tid) thread, in registration order.
type perfettoThread struct {
	pid, tid int32
	name     string
}

// usec converts a simulated instant or duration to trace_event microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e6 }

// perfettoBuilder assigns stable pids/tids and accumulates events.
type perfettoBuilder struct {
	pids     map[string]int32 // CPU name -> pid ("" = hardware process)
	pidOrder []string
	tids     map[[2]int32]bool // (pid, tid) registered
	threads  []perfettoThread
	hwTid    map[string]int32 // hardware task -> tid
	taskSlot map[string]int32 // task -> index in tasks
	tasks    []perfettoTask
	events   []perfettoEvent
}

// perfettoTask is a task's scan state in pass 1: the indexes in r.changes of
// its latest change (where its instants are placed) and of the change that
// opened its current Running interval (-1: none open).
type perfettoTask struct {
	last, open int32
}

func newPerfettoBuilder() *perfettoBuilder {
	return &perfettoBuilder{
		pids:     map[string]int32{},
		tids:     map[[2]int32]bool{},
		hwTid:    map[string]int32{},
		taskSlot: map[string]int32{},
	}
}

// task returns the slot in b.tasks of a task's scan state, registering the
// task on first use.
func (b *perfettoBuilder) task(name string) int32 {
	slot, ok := b.taskSlot[name]
	if !ok {
		slot = int32(len(b.tasks))
		b.taskSlot[name] = slot
		b.tasks = append(b.tasks, perfettoTask{open: -1})
	}
	return slot
}

// pid returns the process id for a CPU name, registering it on first use.
func (b *perfettoBuilder) pid(cpu string) int32 {
	if p, ok := b.pids[cpu]; ok {
		return p
	}
	p := int32(len(b.pidOrder) + 1)
	b.pids[cpu] = p
	b.pidOrder = append(b.pidOrder, cpu)
	return p
}

// known reports whether the (pid, tid) thread is registered, registering it
// otherwise; the caller then sets the new thread's name.
func (b *perfettoBuilder) known(pid, tid int32) bool {
	k := [2]int32{pid, tid}
	if b.tids[k] {
		return true
	}
	b.tids[k] = true
	b.threads = append(b.threads, perfettoThread{pid: pid, tid: tid})
	return false
}

// coreThread returns the tid for a core of a software processor.
func (b *perfettoBuilder) coreThread(cpu string, core int) (pid, tid int32) {
	pid, tid = b.pid(cpu), int32(core+1)
	if !b.known(pid, tid) {
		b.threads[len(b.threads)-1].name = "core" + strconv.Itoa(core)
	}
	return pid, tid
}

// hwThread returns the tid for a hardware task (one thread per task in the
// shared hardware process).
func (b *perfettoBuilder) hwThread(task string) (pid, tid int32) {
	pid = b.pid("")
	tid, ok := b.hwTid[task]
	if !ok {
		tid = int32(len(b.hwTid) + 1)
		b.hwTid[task] = tid
	}
	if !b.known(pid, tid) {
		b.threads[len(b.threads)-1].name = task
	}
	return pid, tid
}

// add appends one event; dur is ignored for instants.
func (b *perfettoBuilder) add(kind perfettoKind, src int, pid, tid int32, start, end sim.Time) {
	b.events = append(b.events, perfettoEvent{
		ts: usec(start), dur: end - start, src: int32(src), pid: pid, tid: tid, kind: kind,
	})
}

// WritePerfetto writes the trace in the Chrome trace_event JSON format. A nil
// recorder writes a valid empty trace.
func (r *Recorder) WritePerfetto(w io.Writer, opts PerfettoOptions) error {
	if err := r.needStored("WritePerfetto"); err != nil {
		return err
	}
	b := newPerfettoBuilder()
	var end sim.Time
	if r != nil {
		end = r.End()
		running := 0
		for i := range r.changes {
			if r.changes[i].State == StateRunning {
				running++
			}
		}
		b.events = make([]perfettoEvent, 0,
			running+len(r.overheads)+len(r.faults)+len(r.migrations)+len(opts.Misses))

		// Pass 1 — Running slices, scanning state changes chronologically and
		// closing each task's open Running interval at the next transition (or
		// at the trace end). openOrder gains an entry at every Running change;
		// the end-of-trace close resets the task's open interval, so a task
		// still running at the end gets its final slice once.
		var openOrder []int32
		for i := range r.changes {
			c := &r.changes[i]
			slot := b.task(c.Task)
			t := &b.tasks[slot]
			t.last = int32(i)
			if t.open >= 0 {
				if c.At > r.changes[t.open].At {
					b.runningSlice(r, int(t.open), c.At)
				}
				t.open = -1
			}
			if c.State == StateRunning {
				openOrder = append(openOrder, slot)
				t.open = int32(i)
			}
		}
		for _, slot := range openOrder {
			if t := &b.tasks[slot]; t.open >= 0 {
				if end > r.changes[t.open].At {
					b.runningSlice(r, int(t.open), end)
				}
				t.open = -1
			}
		}

		// Pass 2 — RTOS overhead slices.
		for i := range r.overheads {
			o := &r.overheads[i]
			pid, tid := b.coreThread(o.CPU, o.Core)
			b.add(pfOverhead, i, pid, tid, o.Start, o.End)
		}

		// Pass 3 — fault and migration instants.
		for i := range r.faults {
			f := &r.faults[i]
			pid, tid := b.placeOf(r, f.Task)
			b.add(pfFault, i, pid, tid, f.At, f.At)
		}
		for i := range r.migrations {
			m := &r.migrations[i]
			pid, tid := b.coreThread(m.CPU, m.To)
			b.add(pfMigration, i, pid, tid, m.At, m.At)
		}
	}

	// Pass 4 — deadline-miss instants from the options.
	for i, m := range opts.Misses {
		pid, tid := b.placeOf(r, m.Task)
		b.add(pfMiss, i, pid, tid, m.At, m.At)
	}

	// Chronological order with a stable sort keeps the build-order tie-break
	// deterministic.
	slices.SortStableFunc(b.events, func(x, y perfettoEvent) int { return cmp.Compare(x.ts, y.ts) })

	return jsonw.Write(w, func(dst []byte) []byte { return b.appendJSON(dst, r, opts) })
}

// appendJSON appends the document: the metadata events (process and thread
// names) first, then the sorted events, indented one space per level like
// json.Encoder with SetIndent("", " ").
func (b *perfettoBuilder) appendJSON(dst []byte, r *Recorder, opts PerfettoOptions) []byte {
	dst = append(dst, "{\n \"displayTimeUnit\": \"ns\",\n \"traceEvents\": ["...)
	n := 0
	for _, cpu := range b.pidOrder {
		name := cpu
		if name == "" {
			name = "hardware"
		}
		dst = appendMeta(openEvent(dst, n), "process_name", b.pids[cpu], 0, name)
		n++
	}
	for _, t := range b.threads {
		dst = appendMeta(openEvent(dst, n), "thread_name", t.pid, t.tid, t.name)
		n++
	}
	for i := range b.events {
		dst = b.events[i].appendJSON(openEvent(dst, n), r, opts)
		n++
	}
	if n > 0 {
		dst = append(dst, "\n "...)
	}
	return append(dst, "]\n}\n"...)
}

// openEvent starts the n-th element of traceEvents, up to its "name" value.
func openEvent(dst []byte, n int) []byte {
	if n > 0 {
		dst = append(dst, ',')
	}
	return append(dst, "\n  {\n   \"name\": "...)
}

// appendMeta appends the rest of a ph:"M" naming event after its "name" key.
func appendMeta(dst []byte, what string, pid, tid int32, name string) []byte {
	dst = append(dst, '"')
	dst = append(dst, what...)
	dst = append(dst, "\",\n   \"ph\": \"M\",\n   \"ts\": 0,\n   \"pid\": "...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, ",\n   \"tid\": "...)
	dst = strconv.AppendInt(dst, int64(tid), 10)
	dst = append(dst, ",\n   \"args\": {\n    \"name\": "...)
	dst = jsonw.AppendString(dst, name)
	return append(dst, "\n   }\n  }"...)
}

// appendJSON appends the rest of the event after its "name" key.
func (e *perfettoEvent) appendJSON(dst []byte, r *Recorder, opts PerfettoOptions) []byte {
	var cat string
	var at sim.Time
	switch e.kind {
	case pfTask:
		cat = "task"
		c := &r.changes[e.src]
		at = c.At
		dst = jsonw.AppendString(dst, c.Task)
	case pfOverhead:
		cat = "overhead"
		o := &r.overheads[e.src]
		at = o.Start
		if o.Task == "" {
			dst = jsonw.AppendString(dst, o.Kind.String())
		} else {
			dst = appendJoined(dst, o.Kind.String(), o.Task)
		}
	case pfFault:
		cat = "fault"
		f := &r.faults[e.src]
		at = f.At
		dst = appendJoined(dst, f.Kind.String(), f.Label)
	case pfMigration:
		cat = "migration"
		m := &r.migrations[e.src]
		at = m.At
		dst = appendJoined(dst, "migrate", m.Task)
	case pfMiss:
		cat = "miss"
		m := &opts.Misses[e.src]
		at = m.At
		dst = appendJoined(dst, "deadline-miss", m.Task)
	}
	dst = append(dst, ",\n   \"cat\": \""...)
	dst = append(dst, cat...)
	if e.kind <= pfOverhead {
		dst = append(dst, "\",\n   \"ph\": \"X\",\n   \"ts\": "...)
		dst = appendUsec(dst, at)
		dst = append(dst, ",\n   \"dur\": "...)
		dst = appendUsec(dst, e.dur)
	} else {
		dst = append(dst, "\",\n   \"ph\": \"i\",\n   \"ts\": "...)
		dst = appendUsec(dst, at)
	}
	dst = append(dst, ",\n   \"pid\": "...)
	dst = strconv.AppendInt(dst, int64(e.pid), 10)
	dst = append(dst, ",\n   \"tid\": "...)
	dst = strconv.AppendInt(dst, int64(e.tid), 10)
	if e.kind <= pfOverhead {
		return append(dst, "\n  }"...)
	}
	// Instant args, keys in sorted order as encoding/json writes a map.
	dst = append(dst, ",\n   \"s\": \"p\",\n   \"args\": {\n    "...)
	switch e.kind {
	case pfFault:
		f := &r.faults[e.src]
		dst = append(dst, "\"detail\": "...)
		dst = jsonw.AppendString(dst, f.Detail)
		dst = append(dst, ",\n    \"task\": "...)
		dst = jsonw.AppendString(dst, f.Task)
	case pfMigration:
		m := &r.migrations[e.src]
		dst = append(dst, "\"from\": "...)
		dst = strconv.AppendInt(dst, int64(m.From), 10)
		dst = append(dst, ",\n    \"task\": "...)
		dst = jsonw.AppendString(dst, m.Task)
		dst = append(dst, ",\n    \"to\": "...)
		dst = strconv.AppendInt(dst, int64(m.To), 10)
	case pfMiss:
		dst = append(dst, "\"task\": "...)
		dst = jsonw.AppendString(dst, opts.Misses[e.src].Task)
	}
	return append(dst, "\n   }\n  }"...)
}

// appendUsec appends usec(t) as encoding/json writes that float. Below 1e15
// ps in magnitude, t/1e6 has at most 15 significant digits, so it is the only
// decimal of that length naming the float usec(t), hence the shortest one
// strconv would print, and integer arithmetic writes it exactly. Larger
// magnitudes take the float formatter.
func appendUsec(dst []byte, t sim.Time) []byte {
	if t <= -1e15 || t >= 1e15 {
		return jsonw.AppendFloat(dst, usec(t))
	}
	if t < 0 {
		dst = append(dst, '-')
		t = -t
	}
	dst = strconv.AppendInt(dst, int64(t/1e6), 10)
	frac, digits := int64(t%1e6), 6
	if frac == 0 {
		return dst
	}
	for frac%10 == 0 {
		frac /= 10
		digits--
	}
	dst = append(dst, ".000000"[:1+digits]...)
	for i := len(dst) - 1; frac > 0; i-- {
		dst[i] = byte('0' + frac%10)
		frac /= 10
	}
	return dst
}

// appendJoined appends the JSON string a+" "+b without building it.
// Escaping is per byte except inside a multi-byte UTF-8 sequence, and none
// spans the ASCII space, so encoding the halves apart is exact.
func appendJoined(dst []byte, a, b string) []byte {
	dst = jsonw.AppendString(dst, a)
	dst[len(dst)-1] = ' ' // the closing quote becomes the separator
	n := len(dst)
	dst = jsonw.AppendString(dst, b)
	return append(dst[:n], dst[n+1:]...) // drop b's opening quote
}

// runningSlice emits one Running interval for the transition that opened it.
func (b *perfettoBuilder) runningSlice(r *Recorder, open int, until sim.Time) {
	c := &r.changes[open]
	var pid, tid int32
	if c.CPU == "" {
		pid, tid = b.hwThread(c.Task)
	} else {
		pid, tid = b.coreThread(c.CPU, c.Core)
	}
	b.add(pfTask, open, pid, tid, c.At, until)
}

// placeOf resolves the process/thread an instant for a task is shown on: the
// task's last known core, or the first process when the task is unknown.
func (b *perfettoBuilder) placeOf(r *Recorder, task string) (pid, tid int32) {
	if slot, ok := b.taskSlot[task]; ok {
		c := &r.changes[b.tasks[slot].last]
		if c.CPU == "" {
			return b.hwThread(task)
		}
		return b.coreThread(c.CPU, c.Core)
	}
	if len(b.pidOrder) > 0 {
		return b.pids[b.pidOrder[0]], 1
	}
	return b.pid("unknown"), 1
}
