package trace

import (
	"sort"
	"strings"

	"repro/internal/sim"
)

// The oracles below are the statistics as scans over the stored trace, the
// way they were computed before the recorder folded them online. The
// property tests hold the fold (ComputeStats, CoreStats, End, the merged
// first-appearance orders) to them record for record.

// oracleEnd is End as a scan: the timestamp of the last recorded item.
func oracleEnd(r *Recorder) sim.Time {
	var end sim.Time
	if n := len(r.changes); n > 0 && r.changes[n-1].At > end {
		end = r.changes[n-1].At
	}
	for i := range r.overheads {
		if r.overheads[i].End > end {
			end = r.overheads[i].End
		}
	}
	if n := len(r.accesses); n > 0 && r.accesses[n-1].At > end {
		end = r.accesses[n-1].At
	}
	if n := len(r.depths); n > 0 && r.depths[n-1].At > end {
		end = r.depths[n-1].At
	}
	if n := len(r.faults); n > 0 && r.faults[n-1].At > end {
		end = r.faults[n-1].At
	}
	if n := len(r.migrations); n > 0 && r.migrations[n-1].At > end {
		end = r.migrations[n-1].At
	}
	return end
}

// oracleSegments is Segments without the storage check.
func oracleSegments(r *Recorder, task string, end sim.Time) []Segment {
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

// oracleStats is ComputeStats as a scan over the stored trace.
func oracleStats(r *Recorder, end sim.Time) Stats {
	if r == nil {
		return Stats{}
	}
	if end == 0 {
		end = oracleEnd(r)
	}
	st := Stats{Window: end}

	cpus := map[string]*ProcessorStats{}
	cpuOf := map[string]string{}
	coresOf := map[string]int{}
	for i := range r.changes {
		c := &r.changes[i]
		if c.CPU != "" && c.Core+1 > coresOf[c.CPU] {
			coresOf[c.CPU] = c.Core + 1
		}
	}

	for _, task := range r.Tasks() {
		ts := TaskStats{Task: task, Window: end}
		for _, seg := range oracleSegments(r, task, end) {
			d := seg.End - seg.Start
			switch seg.State {
			case StateRunning:
				ts.Running += d
			case StateReady:
				ts.Ready += d
			case StateWaiting:
				ts.Waiting += d
			case StateWaitingResource:
				ts.WaitingResource += d
			case StateOverhead:
				ts.Overhead += d
			case StateCreated, StateTerminated:
				ts.Inactive += d
			}
		}
		// Account for time before the first transition.
		if segs := oracleSegments(r, task, end); len(segs) > 0 {
			ts.Inactive += segs[0].Start
		} else {
			ts.Inactive = end
		}
		var prev TaskState = StateCreated
		for i := range r.changes {
			c := &r.changes[i]
			if c.Task != task || c.At > end {
				continue
			}
			if c.CPU != "" {
				ts.CPU = c.CPU
			}
			if c.State == StateRunning {
				ts.Activations++
			}
			if prev == StateRunning && c.State == StateReady {
				ts.Preemptions++
			}
			prev = c.State
		}
		cpuOf[task] = ts.CPU
		st.Tasks = append(st.Tasks, ts)

		if ts.CPU != "" {
			cs := cpus[ts.CPU]
			if cs == nil {
				cs = &ProcessorStats{CPU: ts.CPU, Window: end}
				cpus[ts.CPU] = cs
			}
			cs.Busy += ts.Running
		}
	}

	taskIdx := map[string]int{}
	for i := range st.Tasks {
		taskIdx[st.Tasks[i].Task] = i
	}
	for i := range r.overheads {
		o := &r.overheads[i]
		if o.Start >= end {
			continue
		}
		segEnd := min(o.End, end)
		if o.Task != "" {
			if ti, ok := taskIdx[o.Task]; ok {
				st.Tasks[ti].Overhead += segEnd - o.Start
			}
		}
		cs := cpus[o.CPU]
		if cs == nil {
			cs = &ProcessorStats{CPU: o.CPU, Window: end}
			cpus[o.CPU] = cs
		}
		cs.Overhead += segEnd - o.Start
		if o.Kind == OverheadContextLoad {
			cs.ContextSwitches++
		}
	}
	for _, cs := range cpus {
		cs.Cores = max(1, coresOf[cs.CPU])
		cs.Idle = cs.capacity() - cs.Busy - cs.Overhead
		st.Processors = append(st.Processors, *cs)
	}
	sort.Slice(st.Processors, func(i, j int) bool { return st.Processors[i].CPU < st.Processors[j].CPU })

	// Per-object: utilization from depth samples, counts from accesses.
	type depthAccum struct {
		last     DepthSample
		weighted float64 // integral of depth/capacity dt
		busy     sim.Time
		seen     bool
	}
	accum := map[string]*depthAccum{}
	for _, obj := range r.Objects() {
		accum[obj] = &depthAccum{}
	}
	for i := range r.depths {
		d := &r.depths[i]
		if d.At > end {
			continue
		}
		a := accum[d.Object]
		if a.seen {
			dt := d.At - a.last.At
			if a.last.Capacity > 0 {
				a.weighted += float64(dt) * float64(a.last.Depth) / float64(a.last.Capacity)
			}
			if a.last.Depth > 0 {
				a.busy += dt
			}
		}
		a.last, a.seen = *d, true
	}
	for _, obj := range r.Objects() {
		a := accum[obj]
		if a.seen && a.last.At < end {
			dt := end - a.last.At
			if a.last.Capacity > 0 {
				a.weighted += float64(dt) * float64(a.last.Depth) / float64(a.last.Capacity)
			}
			if a.last.Depth > 0 {
				a.busy += dt
			}
		}
		os := ObjectStats{Object: obj, Window: end, Busy: a.busy}
		if end > 0 {
			os.Utilization = a.weighted / float64(end)
		}
		for i := range r.accesses {
			acc := &r.accesses[i]
			if acc.Object != obj || acc.At > end {
				continue
			}
			switch acc.Kind {
			case AccessSignal:
				os.Signals++
			case AccessSend:
				os.Sends++
			case AccessReceive:
				os.Receives++
			case AccessRead:
				os.Reads++
			case AccessWrite:
				os.Writes++
			case AccessBlocked:
				os.Blocks++
			}
		}
		st.Objects = append(st.Objects, os)
	}
	return st
}

// oracleCoreStats is CoreStats as a scan over the stored trace.
func oracleCoreStats(rec *Recorder, end sim.Time) []CoreStats {
	if end == 0 {
		end = oracleEnd(rec)
	}
	type key struct {
		cpu  string
		core int
	}
	loads := map[key]*CoreStats{}
	get := func(cpu string, core int) *CoreStats {
		k := key{cpu, core}
		l := loads[k]
		if l == nil {
			l = &CoreStats{CPU: cpu, Core: core}
			loads[k] = l
		}
		return l
	}

	// Close each task's open Running interval at the next state change of the
	// same task; the changes are time-ordered, so one open-interval slot per
	// task suffices.
	type open struct {
		at   sim.Time
		cpu  string
		core int
	}
	running := map[string]open{}
	for _, c := range rec.changes {
		if c.CPU == "" || strings.HasPrefix(c.Task, "isr:") {
			continue
		}
		if o, ok := running[c.Task]; ok && c.At >= o.at {
			stop := c.At
			if stop > end {
				stop = end
			}
			if stop > o.at {
				get(o.cpu, o.core).Busy += stop - o.at
			}
			delete(running, c.Task)
		}
		if c.State == StateRunning && c.At < end {
			running[c.Task] = open{at: c.At, cpu: c.CPU, core: c.Core}
			get(c.CPU, c.Core).Dispatches++
		}
	}
	for _, o := range running {
		if end > o.at {
			get(o.cpu, o.core).Busy += end - o.at
		}
	}
	for _, m := range rec.migrations {
		if m.At <= end {
			get(m.CPU, m.To).MigrationsIn++
		}
	}

	var out []CoreStats
	for _, l := range loads {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPU != out[j].CPU {
			return out[i].CPU < out[j].CPU
		}
		return out[i].Core < out[j].Core
	})
	return out
}

// oracleOrders re-derives the first-appearance orders of a merged trace from
// its stored streams: tasks in state-change order, objects from a tandem walk
// of the access and depth streams (depth samples win ties: relations record
// their initial depth at creation, before anything accesses them).
func oracleOrders(r *Recorder) (tasks, objects []string) {
	seenTask, seenObj := map[string]bool{}, map[string]bool{}
	for _, c := range r.changes {
		if !seenTask[c.Task] {
			seenTask[c.Task] = true
			tasks = append(tasks, c.Task)
		}
	}
	note := func(obj string) {
		if !seenObj[obj] {
			seenObj[obj] = true
			objects = append(objects, obj)
		}
	}
	ai, di := 0, 0
	for ai < len(r.accesses) || di < len(r.depths) {
		if di < len(r.depths) && (ai >= len(r.accesses) || r.depths[di].At <= r.accesses[ai].At) {
			note(r.depths[di].Object)
			di++
			continue
		}
		note(r.accesses[ai].Object)
		ai++
	}
	return tasks, objects
}
