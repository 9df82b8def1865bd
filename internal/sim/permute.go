package sim

// Same-instant tie-break permutation — the kernel's first legal choice point.
//
// The timed phase normally fires same-instant entries in (at, seq) insertion
// order, which is deterministic but witnesses only one of the orderings a
// real platform could produce (SystemC leaves same-instant process order
// unspecified; our kernel pins it for reproducibility). A TimedPermuter lets
// a schedule-space explorer re-order the firing of one same-instant batch
// while everything else stays deterministic: the kernel drains the batch,
// asks the permuter for an order, and fires in that order. With no permuter
// installed the drain path is not taken and behaviour is byte-identical to
// the plain loop.
//
// Firing an entry never runs model code (Event.fire only wakes waiters and
// queues methods; proc timeouts just make the process runnable), so the
// drained batch is static: no new same-instant entries can appear while the
// batch fires. The only mutation a firing can cause is *cancellation* of a
// later entry in the same batch (an event wake cancels the woken process's
// timeout via cancelTimed); drained entries carry the levelBatch sentinel so
// the wheel dead-marks them instead of unlinking/releasing an entry it no
// longer owns, and the firing loop skips and recycles them.

// TimedAction describes one entry of a same-instant timed batch, as shown to
// a TimedPermuter: either a timed event notification (IsProc false, Name is
// the event name) or a process timeout wakeup (IsProc true, Name is the
// process name). Seq is the kernel insertion sequence; index i of the actions
// slice is the default (seq-order) firing position.
type TimedAction struct {
	Seq    uint64
	Name   string
	IsProc bool
}

// TimedPermuter chooses the firing order of a same-instant timed batch. The
// kernel calls PermuteTimed with order pre-filled to the identity
// [0,1,...,n-1]; the implementation may reorder it in place. The result must
// be a permutation of the identity or the kernel panics. PermuteTimed is
// only consulted for batches of two or more entries.
//
// The actions and order slices are owned by the kernel and reused across
// batches; implementations must not retain them.
type TimedPermuter interface {
	PermuteTimed(now Time, actions []TimedAction, order []int)
}

// SetTimedPermuter installs (or, with nil, removes) the same-instant
// tie-break permuter. With none installed the timed phase takes its original
// exact (at, seq) path.
func (k *Kernel) SetTimedPermuter(p TimedPermuter) { k.permuter = p }

// fireTimedBatch drains every timed entry scheduled for the current instant,
// asks the permuter for a firing order, and fires in that order. Called from
// the timed phase with k.now already advanced to the batch instant and at
// least one entry pending at it.
func (k *Kernel) fireTimedBatch() {
	batch := k.permBatch[:0]
	for {
		h := k.timedPeek()
		if h == nil || h.at != k.now {
			break
		}
		k.wheel.pop()
		k.mTimedPops.Inc()
		h.level = levelBatch
		batch = append(batch, h)
	}
	k.permBatch = batch

	order := k.permOrder[:0]
	for i := range batch {
		order = append(order, i)
	}
	k.permOrder = order

	if len(batch) > 1 {
		actions := k.permActions[:0]
		for _, e := range batch {
			a := TimedAction{Seq: e.seq}
			if e.event != nil {
				a.Name = e.event.name
			} else {
				a.Name, a.IsProc = e.proc.name, true
			}
			actions = append(actions, a)
		}
		k.permActions = actions
		k.permuter.PermuteTimed(k.now, actions, order)
		k.checkPermutation(order, len(batch))
	}

	for _, i := range order {
		e := batch[i]
		if e.dead {
			// Cancelled by an earlier firing of this batch (event wake
			// cancelling the woken process's timeout).
			e.dead = false
			k.wheel.release(e)
			continue
		}
		switch {
		case e.event != nil:
			ev := e.event
			ev.pendingTimed = nil
			k.wheel.release(e)
			ev.fire()
		case e.proc != nil:
			pr := e.proc
			k.wheel.release(e)
			pr.wakeFromTimeout()
		}
	}
	for i := range batch {
		batch[i] = nil
	}
	k.permBatch = batch[:0]
}

// checkPermutation validates the order returned by a TimedPermuter: it must
// be a permutation of [0, n). Firing an entry twice (or never) would corrupt
// the entry pool, so a malformed order is a panic, not a tolerated input.
func (k *Kernel) checkPermutation(order []int, n int) {
	if len(order) != n {
		panic("sim: TimedPermuter changed the length of the order slice")
	}
	seen := k.permSeen[:0]
	for i := 0; i < n; i++ {
		seen = append(seen, false)
	}
	k.permSeen = seen
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			panic("sim: TimedPermuter returned an invalid permutation")
		}
		seen[i] = true
	}
}
