package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Signature condenses a recorded execution into a canonical string that two
// equivalent runs produce byte-identically: per-task state segments (zero
// length dropped — engines differ only in how many zero-width transitions
// they emit), overhead charges and fault events, the latter two sorted so
// same-instant interleavings that the engines order differently still
// compare equal. It is the equality relation of the procedural↔threaded
// engine-equivalence tests and of the schedule explorer's per-run
// engine-divergence invariant.
func Signature(rec *Recorder, end sim.Time) string {
	rec.mustStore("Signature")
	var b strings.Builder
	for _, task := range rec.SortedTasks() {
		fmt.Fprintf(&b, "%s:", task)
		for _, s := range rec.Segments(task, end) {
			if s.End == s.Start {
				continue
			}
			fmt.Fprintf(&b, " %v[%v..%v]", s.State, s.Start, s.End)
		}
		b.WriteByte('\n')
	}
	var ov []string
	for _, o := range rec.Overheads() {
		if o.End == o.Start || o.Start >= end {
			continue
		}
		ov = append(ov, fmt.Sprintf("%s %s %s %v..%v", o.CPU, o.Kind, o.Task, o.Start, o.End))
	}
	sort.Strings(ov)
	b.WriteString(strings.Join(ov, "\n"))
	var fs []string
	for _, f := range rec.FaultEvents() {
		if f.At >= end {
			continue
		}
		fs = append(fs, fmt.Sprintf("%v %s %s %s", f.At, f.Kind, f.Task, f.Label))
	}
	sort.Strings(fs)
	if len(fs) > 0 {
		b.WriteByte('\n')
		b.WriteString(strings.Join(fs, "\n"))
	}
	return b.String()
}
