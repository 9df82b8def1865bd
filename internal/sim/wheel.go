package sim

import "math/bits"

// timedEntry is a scheduled future action: either a timed event notification
// (event != nil) or a process timeout wakeup (proc != nil).
type timedEntry struct {
	at    Time
	seq   uint64 // insertion order; ties fire in scheduling order
	event *Event
	proc  *Proc
	// dead marks an entry cancelled while drained into the kernel's
	// same-instant firing batch (levelBatch).
	dead bool

	// Wheel location: the slot list links and where the entry lives
	// (levelNone when not queued).
	next, prev *timedEntry
	level      int8
	slot       uint8
}

// timedWheel is the kernel's timed-notification queue: a hierarchical
// timing wheel with one-picosecond resolution and eight levels of 256 slots,
// which span every non-negative Time (256^8 = 2^64). Schedule and cancel are
// O(1); pop is O(1) on the dense path (level-0 slots) and amortizes the
// occasional cascade over the entries it moves.
//
// Placement: an entry lands at the level of the highest base-256 digit where
// its timestamp differs from the cursor (level 0 when equal). Because the
// cursor only advances to timestamps that have been popped, and pushes are
// never in the cursor's past, occupied slots are always ahead of the cursor
// at their level and the wheel never wraps — which is what makes pop order
// exact (at, seq) order rather than the approximate ordering of classic
// timer wheels:
//
//   - all entries in one level-0 slot share an identical timestamp, so the
//     slot's FIFO list is exactly seq order;
//   - a level >= 1 slot s cannot gain entries at levels below it while s is
//     pending (that would require the cursor to carry s's digit, which only
//     happens when s itself is popped and cascaded), so same-timestamp
//     entries always share a slot in append order.
//
// The cursor moves exclusively in pop — peek is read-only — so a run that
// stops at its horizon leaves the wheel able to accept entries earlier than
// the currently-pending head (scheduled between or after runs), which a
// peek-time cursor advance would break.
type timedWheel struct {
	cur   Time        // cursor: timestamp of the last popped entry
	count int         // live entries in the wheel
	min   *timedEntry // cached earliest entry; nil means recompute on peek

	slots [wheelLevels][wheelSlots]wheelSlot
	occ   [wheelLevels][wheelSlots / 64]uint64 // occupancy bitmaps

	free []*timedEntry
}

const (
	wheelLevels = 8
	wheelSlots  = 256

	levelNone = int8(-1) // not queued (free, popped, or killed)

	// levelBatch marks an entry drained into the kernel's same-instant
	// firing batch (permute.go). The entry is out of the wheel but still
	// referenced by the batch, so kill must only dead-mark it — the batch
	// loop skips and recycles dead entries itself.
	levelBatch = int8(-2)
)

// wheelSlot is one doubly-linked FIFO of entries (via timedEntry.next/prev).
type wheelSlot struct{ head, tail *timedEntry }

func newTimedWheel() *timedWheel {
	return &timedWheel{}
}

// digit extracts base-256 digit l of a timestamp.
func digit(t Time, l int) int { return int(uint64(t)>>(uint(l)*8)) & 0xff }

// diffLevel is the index of the highest base-256 digit where a and b differ
// (0 when equal); below wheelLevels for any two non-negative times.
func diffLevel(a, b Time) int {
	x := uint64(a) ^ uint64(b)
	if x == 0 {
		return 0
	}
	return (bits.Len64(x) - 1) >> 3
}

func (w *timedWheel) len() int { return w.count }

func (w *timedWheel) alloc(at Time, seq uint64, e *Event, p *Proc) *timedEntry {
	var entry *timedEntry
	if n := len(w.free); n > 0 {
		entry = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		entry = new(timedEntry)
	}
	// Recycled entries come back with next/prev nil and level levelNone
	// (release resets them), so only the live fields need assigning.
	entry.at, entry.seq, entry.event, entry.proc = at, seq, e, p
	entry.dead = false
	entry.level = levelNone
	return entry
}

func (w *timedWheel) release(e *timedEntry) {
	e.event, e.proc, e.next, e.prev = nil, nil, nil, nil
	e.level = levelNone
	w.free = append(w.free, e)
}

func (w *timedWheel) push(e *timedEntry) {
	w.insert(e, diffLevel(e.at, w.cur))
	if w.min == nil {
		// Cheap single-timer fast path: pushing into an empty structure makes
		// this entry the minimum without a scan. Otherwise stay lazy.
		if w.count == 1 {
			w.min = e
		}
	} else if e.at < w.min.at {
		w.min = e
	}
}

// insert links e at the tail of slot digit(e.at, l) of level l.
func (w *timedWheel) insert(e *timedEntry, l int) {
	s := digit(e.at, l)
	e.level, e.slot = int8(l), uint8(s)
	sl := &w.slots[l][s]
	if sl.tail == nil {
		sl.head, sl.tail = e, e
		w.occ[l][s>>6] |= 1 << (s & 63)
	} else {
		e.prev = sl.tail
		sl.tail.next = e
		sl.tail = e
	}
	w.count++
}

// unlink removes e from its slot list, clearing the occupancy bit when the
// slot empties.
func (w *timedWheel) unlink(e *timedEntry) {
	sl := &w.slots[e.level][e.slot]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sl.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sl.tail = e.prev
	}
	if sl.head == nil {
		w.occ[e.level][e.slot>>6] &^= 1 << (e.slot & 63)
	}
	e.next, e.prev = nil, nil
	e.level = levelNone
	w.count--
}

// findSlot returns the lowest occupied slot index of level l, or -1. Slots
// never sit behind the cursor (placement is always ahead), so the scan
// starts at zero.
func (w *timedWheel) findSlot(l int) int {
	bm := &w.occ[l]
	for wi := range bm {
		if b := bm[wi]; b != 0 {
			return wi<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// peek returns the earliest live entry without removing it, or nil when
// empty. It never moves the cursor.
func (w *timedWheel) peek() *timedEntry {
	if w.min != nil {
		return w.min
	}
	if w.count == 0 {
		return nil
	}
	if s := w.findSlot(0); s >= 0 {
		// Level-0 slot-mates share one timestamp; the head has the lowest seq.
		w.min = w.slots[0][s].head
		return w.min
	}
	for l := 1; l < wheelLevels; l++ {
		s := w.findSlot(l)
		if s < 0 {
			continue
		}
		// The lowest occupied level's first slot holds the earliest region;
		// pick the earliest entry within it. Same-timestamp entries are in
		// seq order, so strict less keeps the earliest seq.
		best := w.slots[l][s].head
		for e := best.next; e != nil; e = e.next {
			if e.at < best.at {
				best = e
			}
		}
		w.min = best
		return best
	}
	panic("sim: timing wheel lost an entry")
}

// pop removes and returns the earliest entry; callers must check peek first.
// Popping is the only operation that advances the cursor, and a cursor jump
// re-places exactly the popped entry's slot-mates.
func (w *timedWheel) pop() *timedEntry {
	e := w.peek()
	w.min = nil
	l, s := int(e.level), int(e.slot)
	w.unlink(e)
	w.cur = e.at
	if l > 0 && w.slots[l][s].head != nil {
		w.cascade(l, s)
	}
	return e
}

// cascade re-places the entries of slot (l, s) after the cursor jumped into
// that slot's time region: their highest digit differing from the cursor is
// now below l. Iterating in list order preserves seq order for equal
// timestamps (the target slots cannot already hold later-seq entries of the
// same timestamp — see the type comment).
func (w *timedWheel) cascade(l, s int) {
	sl := &w.slots[l][s]
	e := sl.head
	if e == nil {
		return
	}
	sl.head, sl.tail = nil, nil
	w.occ[l][s>>6] &^= 1 << (s & 63)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		w.count--
		w.insert(e, diffLevel(e.at, w.cur))
		e = next
	}
}

// kill cancels a scheduled entry. Wheel entries unlink in O(1) and recycle
// immediately (the caller drops its pointer, as Kernel.cancelTimed requires);
// entries drained into the firing batch are dead-marked for the batch loop.
func (w *timedWheel) kill(e *timedEntry) {
	switch e.level {
	case levelNone:
		return
	case levelBatch:
		e.dead = true
	default:
		if w.min == e {
			w.min = nil
		}
		w.unlink(e)
		w.release(e)
	}
}
