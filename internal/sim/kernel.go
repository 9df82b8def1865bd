package sim

import "repro/internal/metrics"

// deltaTimeout records a process to wake at the next delta cycle unless it
// has already been woken (generation mismatch) in the meantime.
type deltaTimeout struct {
	p   *Proc
	gen uint64
}

// updater is implemented by primitive channels (signals) whose new value is
// applied in the update phase, after the evaluate phase of a delta cycle.
type updater interface{ update() }

// timedQueue is the contract between the kernel and its timed-notification
// backend. Two implementations exist: timedWheel (the default, a hierarchical
// timing wheel with O(1) schedule/cancel) and timedHeap (a binary heap, the
// fallback for far-future entries and available as an explicit backend).
// Both pool entries through alloc/release and order pops by (at, seq).
type timedQueue interface {
	alloc(at Time, seq uint64, e *Event, p *Proc) *timedEntry
	release(e *timedEntry)
	push(e *timedEntry)
	pop() *timedEntry
	peek() *timedEntry
	kill(e *timedEntry)
	len() int
}

// Kernel is the discrete-event simulation scheduler. Create one with New,
// spawn processes with Spawn, create events with NewEvent, then call Run
// (to exhaustion) or RunUntil/RunFor (bounded).
//
// A Kernel is not safe for concurrent use: all model code runs inside
// simulation processes which the kernel serializes, and the Run family must
// be called from a single goroutine. Independent kernels are fully isolated,
// so many simulations can run concurrently on separate goroutines (package
// batch exploits this for parameter sweeps).
type Kernel struct {
	now   Time
	limit Time // horizon of the run in progress

	procs   []*Proc
	strands []*Strand
	// lateStarts counts the strands whose first resume waits for the
	// process phase (Strand.StartWithProcesses); lateScan is where the
	// search for the next one in strands resumes.
	lateStarts int
	lateScan   int

	runQueue    ring[*Proc]   // processes runnable in the current evaluate phase
	methodQueue ring[*Method] // methods triggered in the current evaluate phase

	deltaQueue    []*Event // events with a pending delta notification
	deltaProcs    []*Proc  // processes doing WaitDelta
	deltaTimeouts []deltaTimeout

	// Spare buffers double-buffering the delta and update queues: each delta
	// cycle swaps the filled queue for the (drained) spare instead of
	// allocating a fresh slice, so steady-state delta cycles do not allocate.
	deltaQueueSpare    []*Event
	deltaProcsSpare    []*Proc
	deltaTimeoutsSpare []deltaTimeout
	updateSpare        []updater

	updateQueue []updater

	// timed is the active timed-queue backend; wheel is non-nil when it is
	// the (default) timing wheel, letting hot paths call the concrete type
	// directly so peek/push inline instead of going through the interface.
	timed timedQueue
	wheel *timedWheel
	seq   uint64

	// permuter, when set, re-orders same-instant timed batches (permute.go).
	// The perm* slices are its reusable scratch buffers, so the drained-batch
	// path stays allocation-free in steady state.
	permuter    TimedPermuter
	permBatch   []*timedEntry
	permActions []TimedAction
	permOrder   []int
	permSeen    []bool

	current *Proc

	// mainPk parks the Run caller while a process goroutine has control; the
	// goroutine that finishes a scheduling pass (or panics, or unwinds at
	// shutdown) signals it. panicVal carries a panic back to the Run caller
	// for re-raising there: a model panic when panicProc is set (wrapped in
	// *SimError), otherwise a panic from kernel-phase code (a method body,
	// an update callback), re-raised as-is.
	mainPk    *parker
	panicProc *Proc
	panicVal  any

	running       bool
	stopRequested bool
	shuttingDown  bool

	finish     FinishReason
	diagnostic func() []string

	deltaCount    uint64
	activations   uint64
	methodRuns    uint64
	strandResumes uint64

	// Observability counters (metrics.go). All nil until SetMetrics wires a
	// registry; the instruments are nil-safe so the hot paths record
	// unconditionally without allocating.
	mDeltaCycles   *metrics.Counter
	mActivations   *metrics.Counter
	mMethodRuns    *metrics.Counter
	mTimedPops     *metrics.Counter
	mTimedSched    *metrics.Counter
	mStrandResumes *metrics.Counter
}

// New creates an empty simulation kernel at time zero.
func New() *Kernel {
	w := newTimedWheel()
	return &Kernel{timed: w, wheel: w, mainPk: newParker()}
}

// TimedQueueBackend selects the kernel's timed-notification data structure.
type TimedQueueBackend uint8

const (
	// TimedQueueWheel is the default: a hierarchical timing wheel with O(1)
	// schedule/cancel and O(1) pops on dense timer workloads, falling back
	// to a heap for entries beyond its ~280 s span.
	TimedQueueWheel TimedQueueBackend = iota
	// TimedQueueHeap is the plain binary heap: O(log n) throughout,
	// minimal constant footprint. Useful for tiny models and as the
	// reference backend for differential testing.
	TimedQueueHeap
)

// SetTimedQueue selects the timed-queue backend. It must be called before
// any timer is scheduled (typically right after New); switching with timers
// pending would strand them in the old structure.
func (k *Kernel) SetTimedQueue(b TimedQueueBackend) {
	if k.running || k.timed.len() != 0 || k.seq != 0 {
		panic("sim: SetTimedQueue after timers were scheduled")
	}
	switch b {
	case TimedQueueWheel:
		k.wheel = newTimedWheel()
		k.timed = k.wheel
	case TimedQueueHeap:
		k.timed = &timedHeap{}
		k.wheel = nil
	default:
		panic("sim: unknown timed-queue backend")
	}
}

// The timed* helpers route to the concrete wheel when it is active so the
// per-iteration queue operations inline; the interface is only taken for the
// explicitly selected heap backend.

func (k *Kernel) timedPeek() *timedEntry {
	if w := k.wheel; w != nil {
		if w.min != nil {
			return w.min
		}
		if w.count == 0 && len(w.overflow.entries) == 0 {
			return nil
		}
		return w.peek()
	}
	return k.timed.peek()
}

func (k *Kernel) timedPop() *timedEntry {
	if w := k.wheel; w != nil {
		return w.pop()
	}
	return k.timed.pop()
}

func (k *Kernel) timedRelease(e *timedEntry) {
	if w := k.wheel; w != nil {
		w.release(e)
		return
	}
	k.timed.release(e)
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// NextActivity returns the timestamp of the earliest pending timed action
// and true, or false when the timed queue is empty. Between bounded runs it
// is the kernel's next possible instant of local progress; the sharded
// multi-kernel engine uses it to tighten the conservative lookahead bound it
// advertises to neighbouring shards.
func (k *Kernel) NextActivity() (Time, bool) {
	if e := k.timedPeek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// DeltaCount returns the number of delta cycles executed so far.
func (k *Kernel) DeltaCount() uint64 { return k.deltaCount }

// Activations returns the number of process activations (control transfers
// from the kernel into a simulation thread) so far. This is the "number of
// thread switches" metric used by the paper to compare the two RTOS model
// implementations in section 4.
func (k *Kernel) Activations() uint64 { return k.activations }

// MethodRuns returns the number of method executions so far. A method run is
// the zero-switch counterpart of an activation: work that would cost a full
// process activation in a threaded formulation runs inline in the evaluate
// loop instead. Comparing MethodRuns against Activations quantifies how much
// infrastructure work the method-ized formulation keeps off the goroutine
// handoff path.
func (k *Kernel) MethodRuns() uint64 { return k.methodRuns }

// StrandResumes returns the number of strand resumes so far: continuation
// state-machine advances run inline as method executions. Each one stands in
// for what would be a full process activation in a thread formulation, so
// comparing StrandResumes against Activations quantifies the handoffs the
// strands keep off the parker path.
func (k *Kernel) StrandResumes() uint64 { return k.strandResumes }

// Processes returns the processes spawned on this kernel, in spawn order.
func (k *Kernel) Processes() []*Proc { return k.procs }

// Stop requests the simulation to stop at the end of the current evaluate
// step. It may be called from inside a simulation process.
func (k *Kernel) Stop() { k.stopRequested = true }

// Stopped reports whether Stop has been requested.
func (k *Kernel) Stopped() bool { return k.stopRequested }

// Run executes the simulation until no further activity is possible (or Stop
// is called) and then shuts the kernel down, unwinding every still-parked
// process goroutine. After Run returns the kernel cannot be restarted.
func (k *Kernel) Run() {
	k.run(TimeMax)
	k.Shutdown()
}

// RunUntil executes the simulation until simulated time t. Pending activity
// after t stays scheduled, and process goroutines stay parked, so the
// simulation can be continued with further RunUntil/RunFor calls. Call
// Shutdown when done to release the goroutines.
func (k *Kernel) RunUntil(t Time) {
	if t < k.now {
		panic("sim: RunUntil into the past")
	}
	k.run(t)
}

// RunFor executes the simulation for duration d of simulated time. The end
// instant saturates at TimeMax for very large durations.
func (k *Kernel) RunFor(d Time) {
	if d < 0 {
		panic("sim: RunFor with negative duration")
	}
	k.RunUntil(addSat(k.now, d))
}

// Shutdown unwinds every non-terminated process goroutine, then stops every
// strand whose state machine holds resources of its own (a Stopper). It is
// idempotent. Events notified by terminating processes are not propagated.
func (k *Kernel) Shutdown() {
	k.shuttingDown = true
	for _, p := range k.procs {
		if p.started && p.state != ProcTerminated {
			// Kill-signal the parked goroutine; its unwind handler signals
			// mainPk back once it has terminated, serializing the teardown.
			p.pk.signal(true)
			k.mainPk.wait()
		}
	}
	for _, s := range k.strands {
		if st, ok := s.st.(Stopper); ok {
			st.Stop()
		}
	}
}

// run drives the simulation from the Run caller's goroutine. The actual
// scheduling happens in schedule, which executes on whichever goroutine
// currently has control: when schedule hands control to a process, the Run
// caller parks here until some goroutine finishes a scheduling pass (hits
// the limit, quiescence, a stop, or a panic) and signals it back awake.
func (k *Kernel) run(limit Time) {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	if k.shuttingDown {
		panic("sim: Run after Shutdown")
	}
	k.running = true
	defer func() { k.running = false }()
	k.stopRequested = false
	k.limit = limit

	if k.schedule() {
		k.mainPk.wait()
	}
	if r := k.panicVal; r != nil {
		p := k.panicProc
		k.panicProc, k.panicVal = nil, nil
		if p == nil {
			panic(r) // kernel-phase panic, re-raised as-is
		}
		panic(&SimError{At: k.now, Proc: p.name, PanicValue: r})
	}
}

// schedule advances the simulation through the evaluate/update/delta/timed
// phases until it either transfers control to a process goroutine (returns
// true; the caller must then park or unwind) or the run reaches a stopping
// point (returns false with k.finish set; the caller hands control back to
// the Run caller). It runs on the Run caller's goroutine initially and on
// the goroutine of whichever process parks or terminates thereafter — that
// direct handoff is what makes a scheduling action cost one goroutine
// switch instead of a round trip through a kernel goroutine.
//
// A panic out of kernel-phase code (method bodies, update callbacks, event
// deliveries) is captured into k.panicVal (with no panicProc) and reported
// as "no dispatch" so the calling goroutine routes control back to the Run
// caller, which re-raises it — the same observable behaviour as when these
// phases ran on the Run caller's goroutine directly.
func (k *Kernel) schedule() (dispatched bool) {
	defer func() {
		if r := recover(); r != nil {
			k.panicProc, k.panicVal = nil, r
			k.finish = FinishPanic
			dispatched = false
		}
	}()
	for {
		// Evaluate phase: run triggered methods and runnable processes until
		// none are left. Methods are drained before each process dispatch so
		// combinational reactions settle promptly; order is deterministic.
		for !k.stopRequested {
			if k.methodQueue.len() > 0 {
				m := k.methodQueue.pop()
				k.methodRuns++
				k.mMethodRuns.Inc()
				m.run()
				continue
			}
			if k.lateStarts > 0 {
				// A strand standing in for a thread takes its first step
				// where the thread would: one at a time, in creation order,
				// after the methods queued so far, before the processes.
				for !k.strands[k.lateScan].startLate {
					k.lateScan++
				}
				s := k.strands[k.lateScan]
				s.startLate = false
				k.lateStarts--
				s.m.Trigger()
				continue
			}
			if k.runQueue.len() > 0 {
				p := k.runQueue.pop()
				if p.state != ProcRunnable {
					continue // terminated or rescheduled since queuing
				}
				// Dispatch: transfer control to p. The caller returns (and
				// parks or unwinds) right after; from that point p's
				// goroutine is the only one running simulation code.
				k.current = p
				k.activations++
				k.mActivations.Inc()
				p.state = ProcRunning
				if !p.started {
					p.start()
				}
				p.pk.signal(false)
				return true
			}
			break
		}
		if k.stopRequested {
			k.finish = FinishStopped
			return false
		}

		// Update phase: apply primitive-channel writes.
		if len(k.updateQueue) > 0 {
			ups := k.updateQueue
			k.updateQueue = k.updateSpare[:0]
			k.updateSpare = ups
			for i, u := range ups {
				u.update()
				ups[i] = nil
			}
		}

		// Delta notification phase.
		if len(k.deltaQueue) > 0 || len(k.deltaProcs) > 0 || len(k.deltaTimeouts) > 0 {
			k.deltaCount++
			k.mDeltaCycles.Inc()
			dq, dp, dt := k.deltaQueue, k.deltaProcs, k.deltaTimeouts
			k.deltaQueue = k.deltaQueueSpare[:0]
			k.deltaProcs = k.deltaProcsSpare[:0]
			k.deltaTimeouts = k.deltaTimeoutsSpare[:0]
			k.deltaQueueSpare, k.deltaProcsSpare, k.deltaTimeoutsSpare = dq, dp, dt
			for i, e := range dq {
				if e.pendingDelta {
					e.pendingDelta = false
					e.fire()
				}
				dq[i] = nil
			}
			for i, p := range dp {
				if p.state == ProcWaiting {
					k.makeRunnable(p)
				}
				dp[i] = nil
			}
			for i, d := range dt {
				if d.p.state == ProcWaiting && d.p.waitGen == d.gen {
					d.p.wakeFromTimeout()
				}
				dt[i] = deltaTimeout{}
			}
			continue
		}

		// Timed notification phase: advance to the earliest pending action.
		head := k.timedPeek()
		if head == nil {
			// Event starvation: nothing can ever happen again. Clean
			// quiescence if no non-daemon process is left waiting, a
			// deadlock otherwise.
			if k.anyBlocked() {
				k.finish = FinishDeadlock
			} else {
				k.finish = FinishQuiescent
			}
			return false
		}
		if head.at > k.limit {
			k.now = k.limit
			k.finish = FinishLimit
			return false
		}
		k.now = head.at
		if k.permuter != nil {
			k.fireTimedBatch()
			continue
		}
		for h := head; ; {
			k.timedPop()
			k.mTimedPops.Inc()
			switch {
			case h.event != nil:
				ev := h.event
				ev.pendingTimed = nil
				k.timedRelease(h)
				ev.fire()
			case h.proc != nil:
				pr := h.proc
				k.timedRelease(h)
				pr.wakeFromTimeout()
			}
			if h = k.timedPeek(); h == nil || h.at != k.now {
				break
			}
		}
	}
}

// makeRunnable queues p for the current evaluate phase.
func (k *Kernel) makeRunnable(p *Proc) {
	if p.state == ProcTerminated || p.state == ProcRunnable {
		return
	}
	if p.state == ProcRunning {
		// A running process cannot be made runnable; it already runs.
		return
	}
	p.state = ProcRunnable
	k.runQueue.push(p)
}

// scheduleTimed inserts a future action into the timed queue. The entry comes
// from the queue's free list, so the steady-state schedule/fire/cancel cycle
// performs no allocations.
func (k *Kernel) scheduleTimed(at Time, e *Event, p *Proc) *timedEntry {
	k.seq++
	k.mTimedSched.Inc()
	if w := k.wheel; w != nil {
		entry := w.alloc(at, k.seq, e, p)
		w.push(entry)
		return entry
	}
	entry := k.timed.alloc(at, k.seq, e, p)
	k.timed.push(entry)
	return entry
}

// cancelTimed cancels a scheduled entry (and forgets it for compaction
// accounting). Callers must drop their pointer to it.
func (k *Kernel) cancelTimed(entry *timedEntry) {
	if w := k.wheel; w != nil {
		w.kill(entry)
		return
	}
	k.timed.kill(entry)
}

// requestUpdate queues an updater for the update phase of the current delta
// cycle. Deduplication is the caller's responsibility.
func (k *Kernel) requestUpdate(u updater) {
	k.updateQueue = append(k.updateQueue, u)
}

// Current returns the currently executing process, or nil when the kernel
// itself (or user code outside Run) has control.
func (k *Kernel) Current() *Proc { return k.current }
