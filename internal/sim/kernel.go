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

// Kernel is the discrete-event simulation scheduler. Create one with New,
// spawn processes with Spawn, create events with NewEvent, then call Run
// (to exhaustion) or RunUntil/RunFor (bounded).
//
// A Kernel is not safe for concurrent use: all model code runs inside
// simulation processes which the kernel serializes, and the Run family must
// be called from one goroutine at a time. Independent kernels are fully
// isolated, so many simulations can run concurrently on separate goroutines
// (package batch exploits this for parameter sweeps).
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

	// wheel is the timed queue: a hierarchical timing wheel (wheel.go) that
	// orders pops by (at, seq).
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
	return &Kernel{wheel: newTimedWheel()}
}

// timedPeek returns the earliest live timed entry, or nil. The cached-min
// and empty checks are inlined here; the wheel's peek does the rest.
func (k *Kernel) timedPeek() *timedEntry {
	w := k.wheel
	if w.min != nil {
		return w.min
	}
	if w.count == 0 {
		return nil
	}
	return w.peek()
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

// Activations returns the number of process activations (resumes of a
// simulation thread by the kernel) so far. This is the "number of
// thread switches" metric used by the paper to compare the two RTOS model
// implementations in section 4.
func (k *Kernel) Activations() uint64 { return k.activations }

// MethodRuns returns the number of method executions so far. A method run is
// the zero-switch counterpart of an activation: work that would cost a full
// process activation in a threaded formulation runs inline in the evaluate
// loop instead. Comparing MethodRuns against Activations quantifies how much
// infrastructure work the method-ized formulation keeps off the thread
// switch path.
func (k *Kernel) MethodRuns() uint64 { return k.methodRuns }

// StrandResumes returns the number of strand resumes so far: continuation
// state-machine advances run inline as method executions. Each one stands in
// for what would be a full process activation in a thread formulation, so
// comparing StrandResumes against Activations quantifies the thread
// switches the strands avoid.
func (k *Kernel) StrandResumes() uint64 { return k.strandResumes }

// Processes returns the processes spawned on this kernel, in spawn order.
func (k *Kernel) Processes() []*Proc { return k.procs }

// Stop requests the simulation to stop at the end of the current evaluate
// step. It may be called from inside a simulation process.
func (k *Kernel) Stop() { k.stopRequested = true }

// Stopped reports whether Stop has been requested.
func (k *Kernel) Stopped() bool { return k.stopRequested }

// Run executes the simulation until no further activity is possible (or Stop
// is called) and then shuts the kernel down, unwinding every still-suspended
// process. After Run returns the kernel cannot be restarted.
func (k *Kernel) Run() {
	k.run(TimeMax)
	k.Shutdown()
}

// RunUntil executes the simulation until simulated time t. Pending activity
// after t stays scheduled, and processes stay suspended, so the simulation
// can be continued with further RunUntil/RunFor calls, from any goroutine
// (one at a time). Call Shutdown when done to release the processes.
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

// Shutdown unwinds every non-terminated process, running its deferred
// calls, then stops every strand whose state machine holds resources of its
// own (a Stopper). It is idempotent. Events notified by terminating
// processes are not propagated, and panics raised while unwinding are
// discarded.
func (k *Kernel) Shutdown() {
	k.shuttingDown = true
	for _, p := range k.procs {
		if p.stop != nil && p.state != ProcTerminated {
			p.stop()
		}
	}
	for _, s := range k.strands {
		if st, ok := s.st.(Stopper); ok {
			st.Stop()
		}
	}
}

// run drives the simulation up to limit on the caller's goroutine.
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
	k.schedule()
}

// schedule advances the simulation through the evaluate/update/delta/timed
// phases until the run reaches a stopping point, with k.finish set. Each
// process dispatch resumes the process's coroutine inline and continues the
// evaluate loop once it waits again or terminates. A panic, out of a
// process (a *SimError) or out of kernel-phase code (a method body, an
// update callback; re-raised as-is), finishes the run with FinishPanic.
func (k *Kernel) schedule() {
	defer func() {
		if r := recover(); r != nil {
			k.current = nil
			k.finish = FinishPanic
			panic(r)
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
				// Dispatch: run p until it waits again or terminates.
				k.current = p
				k.activations++
				k.mActivations.Inc()
				p.state = ProcRunning
				p.resume()
				k.current = nil
				continue
			}
			break
		}
		if k.stopRequested {
			k.finish = FinishStopped
			return
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
			return
		}
		if head.at > k.limit {
			k.now = k.limit
			k.finish = FinishLimit
			return
		}
		k.now = head.at
		if k.permuter != nil {
			k.fireTimedBatch()
			continue
		}
		for h := head; ; {
			k.wheel.pop()
			k.mTimedPops.Inc()
			switch {
			case h.event != nil:
				ev := h.event
				ev.pendingTimed = nil
				k.wheel.release(h)
				ev.fire()
			case h.proc != nil:
				pr := h.proc
				k.wheel.release(h)
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
	entry := k.wheel.alloc(at, k.seq, e, p)
	k.wheel.push(entry)
	return entry
}

// cancelTimed cancels a scheduled entry (and forgets it for compaction
// accounting). Callers must drop their pointer to it.
func (k *Kernel) cancelTimed(entry *timedEntry) { k.wheel.kill(entry) }

// requestUpdate queues an updater for the update phase of the current delta
// cycle. Deduplication is the caller's responsibility.
func (k *Kernel) requestUpdate(u updater) {
	k.updateQueue = append(k.updateQueue, u)
}

// Current returns the currently executing process, or nil when the kernel
// itself (or user code outside Run) has control.
func (k *Kernel) Current() *Proc { return k.current }
