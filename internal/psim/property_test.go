package psim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// randomDAGScenario generates a shard-labeled random pipeline DAG: one
// processor per node (each on its own shard), channels only along edges
// i -> j with i < j, each edge on a private bus so every processor is the
// sole sender of its buses. Every node runs the same number of iterations,
// so each edge carries exactly `reps` messages and channel capacities of
// `reps` guarantee a send never blocks — the one sequential behavior
// (sender-side backpressure) the cross-shard path does not reproduce.
func randomDAGScenario(r *rand.Rand) string {
	n := 2 + r.Intn(4)     // 2..5 processors
	reps := 5 + r.Intn(12) // iterations per node

	type edge struct{ from, to int }
	var edges []edge
	for j := 1; j < n; j++ {
		from := r.Intn(j)
		edges = append(edges, edge{from, j})
		for i := 0; i < j; i++ {
			if i != from && r.Intn(3) == 0 {
				edges = append(edges, edge{i, j})
			}
		}
	}
	in := make([][]int, n)
	out := make([][]int, n)
	for k, e := range edges {
		out[e.from] = append(out[e.from], k)
		in[e.to] = append(in[e.to], k)
	}

	var b strings.Builder
	b.WriteString(`{"name": "psim-random", "horizon": "50ms", "processors": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"name": "cpu%d", "shard": "s%d"`, i, i)
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, `, "overheads": {"scheduling": "%dns", "contextSave": "%dns", "contextLoad": "%dns"}`,
				100+r.Intn(900), 200+r.Intn(1800), 200+r.Intn(1800))
		}
		b.WriteString("}")
	}
	b.WriteString(`], "buses": [`)
	for k := range edges {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"name": "bus%d", "perByte": "%dns", "arbitration": "%dns"}`,
			k, 1+r.Intn(10), 50+r.Intn(450))
	}
	b.WriteString(`], "channels": [`)
	for k := range edges {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"name": "e%d", "bus": "bus%d", "capacity": %d, "messageBytes": %d}`,
			k, k, reps, 1+r.Intn(64))
	}
	b.WriteString(`], "tasks": [`)
	first := true
	for i := 0; i < n; i++ {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, `{"name": "node%d", "processor": "cpu%d", "priority": %d, "repeat": %d, "body": [`,
			i, i, 5+r.Intn(4), reps)
		ops := []string{}
		for _, k := range in[i] {
			ops = append(ops, fmt.Sprintf(`{"op": "recv", "channel": "e%d"}`, k))
		}
		ops = append(ops, fmt.Sprintf(`{"op": "execute", "for": "%dus"}`, 1+r.Intn(20)))
		for _, k := range out[i] {
			ops = append(ops, fmt.Sprintf(`{"op": "send", "channel": "e%d", "value": %d}`, k, k))
		}
		b.WriteString(strings.Join(ops, ", "))
		b.WriteString("]}")
		// Background load with its own cadence keeps the shard's scheduler
		// busy independently of pipeline traffic.
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, `, {"name": "bg%d", "processor": "cpu%d", "priority": %d, "period": "%dus", "body": [{"op": "execute", "for": "%dus"}]}`,
				i, i, 1+r.Intn(4), 20+r.Intn(50), 1+r.Intn(5))
		}
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestRandomPartitionEquivalence is the lookahead-equivalence property test:
// for a batch of fixed seeds, a random DAG scenario run on the parallel
// engine — both fully sharded by label and merged onto a random smaller
// target — must agree with the sequential kernel on the end time, the finish
// reason and every per-task and per-object trace suborder, and a
// statistics-only run's merged folds must give the statistics of the merged
// stored trace. Seeds are fixed, so the test is deterministic.
func TestRandomPartitionEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			js := randomDAGScenario(r)

			built, _, runErr := runSequential(t, parse(t, js))
			if runErr != nil {
				t.Fatalf("sequential run: %v\nscenario: %s", runErr, js)
			}
			want := signature(built.Sys.Rec)

			// Fully sharded (by label), plus a random coarser partition.
			targets := []int{0}
			if g := 2 + r.Intn(4); g > 1 {
				targets = append(targets, g)
			}
			for _, target := range targets {
				desc := parse(t, js)
				plan, err := desc.Partition(target)
				if err != nil {
					t.Fatalf("partition(%d): %v\nscenario: %s", target, err, js)
				}
				res, err := Run(desc, plan)
				if err != nil {
					t.Fatalf("parallel run (target %d): %v", target, err)
				}
				if res.Err != nil {
					t.Fatalf("parallel simulation (target %d): %v\nscenario: %s", target, res.Err, js)
				}
				if res.End != built.Sys.Now() || res.Finish != built.Sys.FinishReason() {
					t.Fatalf("target %d: parallel (%v, %v) differs from sequential (%v, %v)\nscenario: %s",
						target, res.End, res.Finish, built.Sys.Now(), built.Sys.FinishReason(), js)
				}
				recs := make([]*trace.Recorder, len(res.Builts))
				for i, bu := range res.Builts {
					recs[i] = bu.Sys.Rec
				}
				merged := trace.MergeRecorders(recs, res.End)
				diffSignatures(t, want, signature(merged))

				// A statistics-only run merges the shards' folds alone; its
				// report must equal the statistics replayed from the merged
				// stored trace.
				fdesc := parse(t, js)
				fdesc.StatsOnly = true
				fres, err := Run(fdesc, plan)
				if err != nil || fres.Err != nil {
					t.Fatalf("statistics-only parallel run (target %d): %v %v", target, err, fres.Err)
				}
				frecs := make([]*trace.Recorder, len(fres.Builts))
				for i, bu := range fres.Builts {
					frecs[i] = bu.Sys.Rec
				}
				folded := trace.MergeRecorders(frecs, fres.End)
				if folded.Stores() {
					t.Fatalf("target %d: statistics-only shards stored their traces", target)
				}
				if got, want := folded.ComputeStats(0).String(), merged.ReplayStats(0).String(); got != want {
					t.Fatalf("target %d: merged-fold statistics differ from the merged trace's\n--- fold ---\n%s\n--- trace ---\n%s\nscenario: %s",
						target, got, want, js)
				}
			}
		})
	}
}

// TestRingStress drives the cross-shard SPSC ring hard under the race
// detector: one producer pushing across many block boundaries, one consumer
// popping concurrently, FIFO order and message integrity checked end to end.
func TestRingStress(t *testing.T) {
	const n = 200_000
	q := newRing()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			q.push(message{ts: sim.Time(i), value: i, sender: "p"})
		}
	}()
	for got := 0; got < n; {
		m, ok := q.pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if int(m.ts) != got || m.value != got {
			t.Fatalf("message %d arrived as ts=%v value=%d", got, m.ts, m.value)
		}
		got++
	}
	<-done
}
