package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// This file keeps the reflective encoding/json Perfetto exporter that the
// hand-written WritePerfetto replaced, verbatim, as the byte-for-byte
// reference the writer is tested against.

// oracleEvent is one trace_event entry. Field order is the JSON emission
// order; Dur is a pointer so zero-length slices still carry "dur":0.
type oracleEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type oracleFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []oracleEvent `json:"traceEvents"`
}

// oracleBuilder assigns stable pids/tids and accumulates events.
type oracleBuilder struct {
	pids     map[string]int // CPU name -> pid ("" = hardware process)
	pidOrder []string
	tids     map[[2]int]bool   // (pid, tid) seen
	tidName  map[[2]int]string // (pid, tid) -> thread name
	tidOrder [][2]int
	hwTid    map[string]int // hardware task -> tid
	events   []oracleEvent
}

func newOracleBuilder() *oracleBuilder {
	return &oracleBuilder{
		pids:    map[string]int{},
		tids:    map[[2]int]bool{},
		tidName: map[[2]int]string{},
		hwTid:   map[string]int{},
	}
}

// pid returns the process id for a CPU name, registering it on first use.
func (b *oracleBuilder) pid(cpu string) int {
	if p, ok := b.pids[cpu]; ok {
		return p
	}
	p := len(b.pidOrder) + 1
	b.pids[cpu] = p
	b.pidOrder = append(b.pidOrder, cpu)
	return p
}

// thread registers a (pid, tid) thread with a display name on first use.
func (b *oracleBuilder) thread(pid, tid int, name string) {
	k := [2]int{pid, tid}
	if !b.tids[k] {
		b.tids[k] = true
		b.tidName[k] = name
		b.tidOrder = append(b.tidOrder, k)
	}
}

// coreThread returns the tid for a core of a software processor.
func (b *oracleBuilder) coreThread(cpu string, core int) (pid, tid int) {
	pid = b.pid(cpu)
	tid = core + 1
	b.thread(pid, tid, fmt.Sprintf("core%d", core))
	return pid, tid
}

// hwThread returns the tid for a hardware task (one thread per task in the
// shared hardware process).
func (b *oracleBuilder) hwThread(task string) (pid, tid int) {
	pid = b.pid("")
	t, ok := b.hwTid[task]
	if !ok {
		t = len(b.hwTid) + 1
		b.hwTid[task] = t
	}
	b.thread(pid, t, task)
	return pid, t
}

// slice appends a complete (ph:"X") event.
func (b *oracleBuilder) slice(name, cat string, pid, tid int, start, end sim.Time) {
	d := usec(end - start)
	b.events = append(b.events, oracleEvent{
		Name: name, Cat: cat, Ph: "X", Ts: usec(start), Dur: &d, Pid: pid, Tid: tid,
	})
}

// instant appends a process-scoped instant (ph:"i") event.
func (b *oracleBuilder) instant(name, cat string, pid, tid int, at sim.Time, args map[string]any) {
	b.events = append(b.events, oracleEvent{
		Name: name, Cat: cat, Ph: "i", Ts: usec(at), Pid: pid, Tid: tid, S: "p", Args: args,
	})
}

// oracleWritePerfetto is the encoding/json form of WritePerfetto.
func oracleWritePerfetto(r *Recorder, w io.Writer, opts PerfettoOptions) error {
	if err := r.needStored("WritePerfetto"); err != nil {
		return err
	}
	b := newOracleBuilder()
	var end sim.Time
	var taskCPU map[string]lastPlace
	if r != nil {
		end = r.End()
		taskCPU = map[string]lastPlace{}

		// Pass 1 — Running slices, scanning state changes chronologically and
		// closing each task's open Running interval at the next transition (or
		// at the trace end).
		open := map[string]*StateChange{}
		var openOrder []string
		for i := range r.changes {
			c := &r.changes[i]
			taskCPU[c.Task] = lastPlace{cpu: c.CPU, core: c.Core}
			if prev := open[c.Task]; prev != nil {
				if c.At > prev.At {
					b.runningSlice(prev, c.At)
				}
				delete(open, c.Task)
			}
			if c.State == StateRunning {
				if open[c.Task] == nil {
					openOrder = append(openOrder, c.Task)
				}
				open[c.Task] = c
			}
		}
		for _, task := range openOrder {
			if prev := open[task]; prev != nil {
				if end > prev.At {
					b.runningSlice(prev, end)
				}
				delete(open, task)
			}
		}

		// Pass 2 — RTOS overhead slices.
		for i := range r.overheads {
			o := &r.overheads[i]
			pid, tid := b.coreThread(o.CPU, o.Core)
			name := o.Kind.String()
			if o.Task != "" {
				name += " " + o.Task
			}
			b.slice(name, "overhead", pid, tid, o.Start, o.End)
		}

		// Pass 3 — fault and migration instants.
		for i := range r.faults {
			f := &r.faults[i]
			pid, tid := b.placeOf(taskCPU, f.Task)
			b.instant(f.Kind.String()+" "+f.Label, "fault", pid, tid, f.At,
				map[string]any{"task": f.Task, "detail": f.Detail})
		}
		for i := range r.migrations {
			m := &r.migrations[i]
			pid, tid := b.coreThread(m.CPU, m.To)
			b.instant("migrate "+m.Task, "migration", pid, tid, m.At,
				map[string]any{"task": m.Task, "from": m.From, "to": m.To})
		}
	}

	// Pass 4 — deadline-miss instants from the options.
	for _, m := range opts.Misses {
		pid, tid := b.placeOf(taskCPU, m.Task)
		b.instant("deadline-miss "+m.Task, "miss", pid, tid, m.At,
			map[string]any{"task": m.Task})
	}

	// Chronological order with a stable sort keeps the build-order tie-break
	// deterministic.
	sort.SliceStable(b.events, func(i, j int) bool { return b.events[i].Ts < b.events[j].Ts })

	// Metadata events (process and thread names) go first.
	meta := make([]oracleEvent, 0, len(b.pidOrder)+len(b.tidOrder))
	for _, cpu := range b.pidOrder {
		name := cpu
		if name == "" {
			name = "hardware"
		}
		meta = append(meta, oracleEvent{
			Name: "process_name", Ph: "M", Pid: b.pids[cpu], Args: map[string]any{"name": name},
		})
	}
	for _, k := range b.tidOrder {
		meta = append(meta, oracleEvent{
			Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1], Args: map[string]any{"name": b.tidName[k]},
		})
	}

	file := oracleFile{
		DisplayTimeUnit: "ns",
		TraceEvents:     append(meta, b.events...),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

// runningSlice emits one Running interval for the transition that opened it.
func (b *oracleBuilder) runningSlice(open *StateChange, until sim.Time) {
	var pid, tid int
	if open.CPU == "" {
		pid, tid = b.hwThread(open.Task)
	} else {
		pid, tid = b.coreThread(open.CPU, open.Core)
	}
	b.slice(open.Task, "task", pid, tid, open.At, until)
}

// placeOf resolves the process/thread an instant for a task is shown on: the
// task's last known core, or the first process when the task is unknown.
func (b *oracleBuilder) placeOf(taskCPU map[string]lastPlace, task string) (pid, tid int) {
	if p, ok := taskCPU[task]; ok {
		if p.cpu == "" {
			return b.hwThread(task)
		}
		return b.coreThread(p.cpu, p.core)
	}
	if len(b.pidOrder) > 0 {
		return b.pids[b.pidOrder[0]], 1
	}
	return b.pid("unknown"), 1
}

// lastPlace remembers where a task was last seen scheduling-wise.
type lastPlace struct {
	cpu  string
	core int
}
