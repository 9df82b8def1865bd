package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// timedHeap is a binary min-heap of timedEntry ordered by (at, seq), kept
// as the simple reference the timing wheel's pop order is tested against
// (TestWheelMatchesHeapRandomized) and benchmarked against
// (BenchmarkTimedQueueOps, BenchmarkTimedQueueCancel). Cancelled entries are
// dead-marked and discarded when they surface at the head, or in bulk by
// compact once they outnumber the live ones.
type timedHeap struct {
	entries []*timedEntry
	free    []*timedEntry // recycled entries for alloc
	dead    int           // count of cancelled entries still in the heap
}

// compactMinSize is the heap size below which dead entries are left to
// surface lazily; compacting tiny heaps is not worth the re-heapify.
const compactMinSize = 64

func (h *timedHeap) len() int { return len(h.entries) }

// alloc returns a recycled (or new) entry initialized with the given fields.
func (h *timedHeap) alloc(at Time, seq uint64, e *Event, p *Proc) *timedEntry {
	var entry *timedEntry
	if n := len(h.free); n > 0 {
		entry = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		*entry = timedEntry{at: at, seq: seq, event: e, proc: p}
	} else {
		entry = &timedEntry{at: at, seq: seq, event: e, proc: p}
	}
	return entry
}

// release returns an entry to the free list. The caller guarantees no
// outstanding references: a released entry may be handed out again by the
// very next alloc.
func (h *timedHeap) release(e *timedEntry) {
	e.event = nil
	e.proc = nil
	e.next, e.prev = nil, nil
	e.level = levelNone
	h.free = append(h.free, e)
}

// kill cancels a scheduled entry. The entry stays in the heap until it
// surfaces or the next compaction; the caller must drop its pointer.
func (h *timedHeap) kill(e *timedEntry) {
	if e.dead {
		return
	}
	e.dead = true
	h.dead++
	if h.dead > len(h.entries)/2 && len(h.entries) >= compactMinSize {
		h.compact()
	}
}

// compact removes every dead entry in one pass and re-heapifies. Without it,
// workloads that cancel most of their timers (timeouts that rarely expire,
// repeatedly rescheduled events) accumulate dead entries that inflate every
// sift until they happen to surface.
func (h *timedHeap) compact() {
	live := h.entries[:0]
	for _, e := range h.entries {
		if e.dead {
			h.release(e)
		} else {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(h.entries); i++ {
		h.entries[i] = nil
	}
	h.entries = live
	h.dead = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *timedHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *timedHeap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
}

func (h *timedHeap) push(e *timedEntry) {
	h.entries = append(h.entries, e)
	h.up(len(h.entries) - 1)
}

// pop removes and returns the earliest entry; callers must check len first.
func (h *timedHeap) pop() *timedEntry {
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries[last] = nil
	h.entries = h.entries[:last]
	if len(h.entries) > 0 {
		h.down(0)
	}
	if top.dead {
		h.dead--
	}
	return top
}

// peek returns the earliest entry without removing it, or nil when empty.
// Dead entries are pruned (and recycled) so the reported head is live.
func (h *timedHeap) peek() *timedEntry {
	for len(h.entries) > 0 {
		if h.entries[0].dead {
			h.release(h.pop())
			continue
		}
		return h.entries[0]
	}
	return nil
}

func (h *timedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *timedHeap) down(i int) {
	n := len(h.entries)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func TestTimedHeapOrdering(t *testing.T) {
	var h timedHeap
	times := []Time{5, 1, 9, 3, 3, 7, 0, 2}
	for i, at := range times {
		h.push(&timedEntry{at: at, seq: uint64(i)})
	}
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		e := h.peek()
		if e == nil {
			t.Fatalf("heap empty at %d", i)
		}
		h.pop()
		if e.at != w {
			t.Fatalf("pop %d: got %v, want %v", i, e.at, w)
		}
	}
	if h.peek() != nil {
		t.Fatal("heap not empty after draining")
	}
}

func TestTimedHeapStableTies(t *testing.T) {
	var h timedHeap
	for i := 0; i < 10; i++ {
		h.push(&timedEntry{at: 42, seq: uint64(i)})
	}
	for i := 0; i < 10; i++ {
		e := h.peek()
		h.pop()
		if e.seq != uint64(i) {
			t.Fatalf("tie ordering broken: pop %d has seq %d", i, e.seq)
		}
	}
}

func TestTimedHeapDeadPruning(t *testing.T) {
	var h timedHeap
	a := &timedEntry{at: 1, seq: 0}
	b := &timedEntry{at: 2, seq: 1}
	h.push(a)
	h.push(b)
	a.dead = true
	if got := h.peek(); got != b {
		t.Fatalf("peek did not skip dead entry: got %+v", got)
	}
	if h.len() != 1 {
		t.Fatalf("dead entry not pruned: len=%d", h.len())
	}
}

func TestTimedHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h timedHeap
	var seq uint64
	var reference []*timedEntry
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) > 0 || len(reference) == 0 {
			seq++
			e := &timedEntry{at: Time(rng.Intn(100)), seq: seq}
			h.push(e)
			reference = append(reference, e)
		} else {
			got := h.peek()
			h.pop()
			// Find the reference minimum by (at, seq).
			best := 0
			for j, e := range reference {
				if e.at < reference[best].at ||
					(e.at == reference[best].at && e.seq < reference[best].seq) {
					best = j
				}
			}
			want := reference[best]
			reference = append(reference[:best], reference[best+1:]...)
			if got != want {
				t.Fatalf("step %d: heap pop %+v, reference %+v", i, got, want)
			}
		}
	}
}
