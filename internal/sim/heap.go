package sim

// timedEntry is a scheduled future action: either a timed event notification
// (event != nil) or a process timeout wakeup (proc != nil). Entries are
// cancelled with kill, which marks them dead; dead entries are discarded when
// they surface at the heap head, or in bulk by compact once they outnumber
// the live ones.
type timedEntry struct {
	at    Time
	seq   uint64 // insertion order; ties fire in scheduling order
	event *Event
	proc  *Proc
	dead  bool

	// Wheel location (wheel.go): the slot list links and where the entry
	// lives (levelNone when not queued, levelHeap in the wheel's overflow
	// heap).
	next, prev *timedEntry
	level      int8
	slot       uint8
}

// timedHeap is a binary min-heap of timedEntry ordered by (at, seq): the
// timing wheel's overflow store for entries beyond its span, and the
// reference its pop order is tested against. It is hand-rolled rather than using container/heap to avoid interface boxing on
// the simulation hot path, and it owns a free list so the steady-state
// schedule/fire cycle allocates no entries at all.
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
