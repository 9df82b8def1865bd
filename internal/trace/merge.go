package trace

import (
	"sort"

	"repro/internal/sim"
)

// MergeRecorders combines the per-shard trace recorders of a parallel run
// into one recorder, as if a single recorder had observed the whole system.
// end becomes the merged recorder's clock value (the aggregate simulated end
// time). The statistics folds merge directly; task and object
// first-appearance orders are those of a time-ordered merge of the shards'
// records, ties in shard order, so rendering is deterministic for a given
// shard assignment. The stored streams are merged the same way (stable by
// timestamp) when every shard stored them; fault events always are. The
// inputs are per-shard recorders: a merged recorder does not keep what a
// second merge would need to order its objects.
func MergeRecorders(recs []*Recorder, end sim.Time) *Recorder {
	out := &Recorder{now: func() sim.Time { return end }, store: true}
	var folds []*fold
	for _, r := range recs {
		if r == nil {
			continue
		}
		folds = append(folds, &r.fold)
		out.store = out.store && r.store
		out.faults = append(out.faults, r.faults...)
	}
	out.fold = mergeFolds(folds)
	// Per-shard streams are already chronological; a stable sort by
	// timestamp interleaves them while keeping shard order on ties.
	sort.SliceStable(out.faults, func(i, j int) bool { return out.faults[i].At < out.faults[j].At })
	if !out.store {
		return out
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		out.changes = append(out.changes, r.changes...)
		out.overheads = append(out.overheads, r.overheads...)
		out.accesses = append(out.accesses, r.accesses...)
		out.depths = append(out.depths, r.depths...)
		out.migrations = append(out.migrations, r.migrations...)
	}
	sort.SliceStable(out.changes, func(i, j int) bool { return out.changes[i].At < out.changes[j].At })
	sort.SliceStable(out.overheads, func(i, j int) bool { return out.overheads[i].Start < out.overheads[j].Start })
	sort.SliceStable(out.accesses, func(i, j int) bool { return out.accesses[i].At < out.accesses[j].At })
	sort.SliceStable(out.depths, func(i, j int) bool { return out.depths[i].At < out.depths[j].At })
	sort.SliceStable(out.migrations, func(i, j int) bool { return out.migrations[i].At < out.migrations[j].At })
	return out
}
