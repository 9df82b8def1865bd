package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// jsonTrace is the schema of WriteJSON. The multi-core fields (per-state
// core, migrations) use omitempty so single-core traces stay byte-identical
// to the pre-multi-core schema.
type jsonTrace struct {
	Tasks      []string          `json:"tasks"`
	Objects    []string          `json:"objects"`
	States     []jsonStateChange `json:"states"`
	Overheads  []jsonOverhead    `json:"overheads"`
	Accesses   []jsonAccess      `json:"accesses"`
	Depths     []jsonDepth       `json:"depths"`
	Faults     []jsonFault       `json:"faults,omitempty"`
	Migrations []jsonMigration   `json:"migrations,omitempty"`
}

type jsonMigration struct {
	AtPs sim.Time `json:"at_ps"`
	Task string   `json:"task"`
	CPU  string   `json:"cpu"`
	From int      `json:"from"`
	To   int      `json:"to"`
}

type jsonFault struct {
	AtPs   sim.Time `json:"at_ps"`
	Kind   string   `json:"kind"`
	Task   string   `json:"task"`
	Label  string   `json:"label"`
	Detail string   `json:"detail,omitempty"`
}

type jsonStateChange struct {
	AtPs  sim.Time `json:"at_ps"`
	Task  string   `json:"task"`
	CPU   string   `json:"cpu,omitempty"`
	Core  int      `json:"core,omitempty"`
	State string   `json:"state"`
}

type jsonOverhead struct {
	CPU     string   `json:"cpu"`
	Task    string   `json:"task,omitempty"`
	Core    int      `json:"core,omitempty"`
	Kind    string   `json:"kind"`
	StartPs sim.Time `json:"start_ps"`
	EndPs   sim.Time `json:"end_ps"`
}

type jsonAccess struct {
	AtPs   sim.Time `json:"at_ps"`
	Actor  string   `json:"actor"`
	Object string   `json:"object"`
	Kind   string   `json:"kind"`
}

type jsonDepth struct {
	AtPs     sim.Time `json:"at_ps"`
	Object   string   `json:"object"`
	Depth    int      `json:"depth"`
	Capacity int      `json:"capacity"`
}

// WriteJSON emits the full trace as a single JSON document, convenient for
// external tooling and diffing.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	if err := r.needStored("WriteJSON"); err != nil {
		return err
	}
	out := jsonTrace{Tasks: r.Tasks(), Objects: r.Objects()}
	for i := range r.changes {
		c := &r.changes[i]
		out.States = append(out.States, jsonStateChange{
			AtPs: c.At, Task: c.Task, CPU: c.CPU, Core: c.Core, State: c.State.String(),
		})
	}
	for i := range r.overheads {
		o := &r.overheads[i]
		out.Overheads = append(out.Overheads, jsonOverhead{
			CPU: o.CPU, Task: o.Task, Core: o.Core, Kind: o.Kind.String(), StartPs: o.Start, EndPs: o.End,
		})
	}
	for i := range r.accesses {
		a := &r.accesses[i]
		out.Accesses = append(out.Accesses, jsonAccess{
			AtPs: a.At, Actor: a.Actor, Object: a.Object, Kind: a.Kind.String(),
		})
	}
	for i := range r.depths {
		d := &r.depths[i]
		out.Depths = append(out.Depths, jsonDepth{
			AtPs: d.At, Object: d.Object, Depth: d.Depth, Capacity: d.Capacity,
		})
	}
	for i := range r.faults {
		f := &r.faults[i]
		out.Faults = append(out.Faults, jsonFault{
			AtPs: f.At, Kind: f.Kind.String(), Task: f.Task, Label: f.Label, Detail: f.Detail,
		})
	}
	for i := range r.migrations {
		m := &r.migrations[i]
		out.Migrations = append(out.Migrations, jsonMigration{
			AtPs: m.At, Task: m.Task, CPU: m.CPU, From: m.From, To: m.To,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV emits the full trace as CSV with one row per recorded item:
//
//	kind,at_ps,who,what,detail,start_ps,end_ps
//
// kinds: state, overhead, access, depth, migrate. The flat format is convenient for
// spreadsheet analysis and diffing traces between the two RTOS engines.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if err := r.needStored("WriteCSV"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "kind,at_ps,who,what,detail,start_ps,end_ps"); err != nil {
		return err
	}
	for i := range r.changes {
		c := &r.changes[i]
		if _, err := fmt.Fprintf(w, "state,%d,%s,%s,%s,,\n", c.At, c.Task, c.State, c.CPU); err != nil {
			return err
		}
	}
	for i := range r.overheads {
		o := &r.overheads[i]
		if _, err := fmt.Fprintf(w, "overhead,%d,%s,%s,%s,%d,%d\n",
			o.Start, o.CPU, o.Kind, o.Task, o.Start, o.End); err != nil {
			return err
		}
	}
	for i := range r.accesses {
		a := &r.accesses[i]
		if _, err := fmt.Fprintf(w, "access,%d,%s,%s,%s,,\n", a.At, a.Actor, a.Kind, a.Object); err != nil {
			return err
		}
	}
	for i := range r.depths {
		d := &r.depths[i]
		if _, err := fmt.Fprintf(w, "depth,%d,%s,%d,%d,,\n", d.At, d.Object, d.Depth, d.Capacity); err != nil {
			return err
		}
	}
	for i := range r.migrations {
		m := &r.migrations[i]
		if _, err := fmt.Fprintf(w, "migrate,%d,%s,core%d->core%d,%s,,\n",
			m.At, m.Task, m.From, m.To, m.CPU); err != nil {
			return err
		}
	}
	return nil
}

// WriteVCD emits the task states and object depths as a Value Change Dump
// file viewable in standard waveform viewers. Each task becomes a 3-bit
// vector holding its TaskState code; each communication object becomes a
// 16-bit vector holding its depth. Timescale is 1ps, matching sim.Time.
func (r *Recorder) WriteVCD(w io.Writer) error {
	if r == nil {
		return nil
	}
	if err := r.needStored("WriteVCD"); err != nil {
		return err
	}
	tasks := r.Tasks()
	objects := r.Objects()

	// VCD identifier codes: printable ASCII starting at '!'.
	code := func(i int) string {
		const base = 94 // '!'..'~'
		s := ""
		for {
			s = string(rune('!'+i%base)) + s
			i = i/base - 1
			if i < 0 {
				break
			}
		}
		return s
	}
	taskCode := map[string]string{}
	objCode := map[string]string{}
	n := 0
	for _, t := range tasks {
		taskCode[t] = code(n)
		n++
	}
	for _, o := range objects {
		objCode[o] = code(n)
		n++
	}

	if _, err := fmt.Fprintf(w, "$timescale 1ps $end\n$scope module system $end\n"); err != nil {
		return err
	}
	for _, t := range tasks {
		if _, err := fmt.Fprintf(w, "$var wire 3 %s %s $end\n", taskCode[t], sanitizeVCD(t)); err != nil {
			return err
		}
	}
	for _, o := range objects {
		if _, err := fmt.Fprintf(w, "$var wire 16 %s %s $end\n", objCode[o], sanitizeVCD(o)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "$upscope $end\n$enddefinitions $end\n"); err != nil {
		return err
	}

	type change struct {
		at   sim.Time
		text string
	}
	var changes []change
	for i := range r.changes {
		c := &r.changes[i]
		changes = append(changes, change{c.At, fmt.Sprintf("b%b %s", c.State, taskCode[c.Task])})
	}
	for i := range r.depths {
		d := &r.depths[i]
		changes = append(changes, change{d.At, fmt.Sprintf("b%b %s", uint(d.Depth), objCode[d.Object])})
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].at < changes[j].at })

	last := sim.Time(-1)
	for _, c := range changes {
		if c.at != last {
			if _, err := fmt.Fprintf(w, "#%d\n", c.at); err != nil {
				return err
			}
			last = c.at
		}
		if _, err := fmt.Fprintln(w, c.text); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeVCD replaces characters that confuse VCD parsers in identifiers.
func sanitizeVCD(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '$' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}
