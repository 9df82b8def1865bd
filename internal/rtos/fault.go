// This file implements fault injection: deterministic, seedable
// misbehaviour injected into an otherwise correct model, for exploring how a
// design degrades when tasks overrun, crash or hang and when interrupts are
// lost or late. Every injector's decisions derive from a hash of (seed,
// name, occurrence index), never from the host RNG or the engine
// implementation, so faulty runs reproduce exactly and both scheduler
// engines observe identical faults.

package rtos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// faultRoll returns a deterministic pseudo-random value in [0, 1) derived
// from the seed, a name and an occurrence index.
func faultRoll(seed int64, name string, n uint64) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	binary.LittleEndian.PutUint64(b[:], n)
	h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// faultHit decides one occurrence: probability zero (or one) means "always".
func faultHit(probability float64, seed int64, name string, n uint64) bool {
	if probability <= 0 || probability >= 1 {
		return true
	}
	return faultRoll(seed, name, n) < probability
}

// WCETOverrun describes a worst-case-execution-time inflation fault: while
// active, every Execute call of the task consumes Factor times its duration
// plus Extra. This models optimistic WCET annotations, cache pollution, or a
// misbehaving code path.
type WCETOverrun struct {
	// Factor multiplies the execution duration; values below 1 are
	// rejected, zero means 1 (no multiplicative inflation).
	Factor float64
	// Extra is added to each affected Execute duration.
	Extra sim.Time
	// Probability selects which Execute calls are affected; zero or one
	// means every call. Decisions are deterministic in Seed.
	Probability float64
	// Seed drives the per-call decisions.
	Seed int64
	// After activates the fault from this simulated instant (zero: from the
	// start); Until deactivates it (zero: never).
	After, Until sim.Time
}

// InjectWCETOverrun attaches a WCET-overrun fault to the task. Call before
// the simulation starts. Only one overrun fault per task is supported; a
// second call replaces the first.
func (t *Task) InjectWCETOverrun(f WCETOverrun) {
	if f.Factor != 0 && f.Factor < 1 {
		panic("rtos: WCET overrun factor must be at least 1")
	}
	if f.Extra < 0 {
		panic("rtos: WCET overrun extra must not be negative")
	}
	if f.Factor == 0 {
		f.Factor = 1
	}
	if f.Factor == 1 && f.Extra == 0 {
		panic("rtos: WCET overrun with no effect (factor 1, extra 0)")
	}
	if f.Probability < 0 || f.Probability > 1 {
		panic("rtos: WCET overrun probability out of [0, 1]")
	}
	t.wcetFault = &f
}

// inflateWCET applies the task's WCET-overrun fault to one Execute duration
// (already scaled to processor time) and records the injection.
func (t *Task) inflateWCET(d sim.Time) sim.Time {
	f := t.wcetFault
	t.execSeq++
	if f == nil || d <= 0 {
		return d
	}
	now := t.cpu.k.Now()
	if now < f.After || (f.Until > 0 && now >= f.Until) {
		return d
	}
	if !faultHit(f.Probability, f.Seed, t.name, t.execSeq) {
		return d
	}
	inflated := d.Scale(f.Factor) + f.Extra
	if inflated < d {
		inflated = sim.TimeMax // saturate absurd factors
	}
	t.cpu.rec.Fault(trace.FaultInjected, t.name, "wcet-overrun",
		fmt.Sprintf("+%v (x%g +%v)", inflated-d, f.Factor, f.Extra))
	return inflated
}

// InjectCrashAt schedules a transient crash of the task at simulated time
// at: the task's current job is aborted at its next preemption point (an
// Execute or Delay call). A crashed periodic task resumes at its next
// release; a crashed one-shot task terminates. A crash arriving while the
// task has no job in flight is recorded but has no effect.
func (t *Task) InjectCrashAt(at sim.Time) {
	if at < 0 {
		panic("rtos: InjectCrashAt with negative time")
	}
	ev := t.cpu.k.NewEvent(t.name + ".faultCrash")
	t.cpu.k.NewMethod(t.name+".faultCrashFire", func() {
		if t.state == trace.StateTerminated {
			return
		}
		if !t.inJob {
			t.cpu.rec.Fault(trace.FaultInjected, t.name, "crash", "while idle: no job to kill")
			return
		}
		t.cpu.rec.Fault(trace.FaultInjected, t.name, "crash", "job aborts at next preemption point")
		t.requestAbort("crash-abort")
	}, false, ev)
	ev.NotifyAt(at)
}

// InjectHangAt schedules the task to become stuck at simulated time at: at
// its next Execute instant the task stops consuming processor time and
// blocks (Waiting state) for the given duration — forever when dur is zero,
// in which case only a watchdog restart (or an explicit Resume) recovers it.
// The remaining execution time of the interrupted Execute is preserved.
func (t *Task) InjectHangAt(at, dur sim.Time) {
	if at < 0 || dur < 0 {
		panic("rtos: InjectHangAt with negative time")
	}
	ev := t.cpu.k.NewEvent(t.name + ".faultHang")
	t.cpu.k.NewMethod(t.name+".faultHangFire", func() {
		if t.state == trace.StateTerminated {
			return
		}
		if !t.inJob {
			t.cpu.rec.Fault(trace.FaultInjected, t.name, "hang", "while idle: nothing to hang")
			return
		}
		t.hangPending = true
		t.hangDur = dur
		t.evRun.Notify() // wake an in-progress Execute
	}, false, ev)
	ev.NotifyAt(at)
}

// requestAbort asks the task to abandon its current job at the next abort
// checkpoint (Execute or Delay); reason is the recovery label recorded when
// the abort lands. If the task is hung it is made ready so the checkpoint is
// reached.
func (t *Task) requestAbort(reason string) {
	t.abortPending = true
	t.abortReason = reason
	switch t.state {
	case trace.StateRunning:
		t.evRun.Notify()
	case trace.StateWaiting:
		if t.hung {
			// Safe to wake: the hang parked the task without any
			// communication-object bookkeeping. Cancel the finite-hang
			// timer so it cannot fire after the task already resumed.
			if t.delayEvent != nil {
				t.delayEvent.Cancel()
			}
			t.cpu.taskIsReady(t)
		}
		// A task blocked in Delay wakes at its scheduled time and then
		// aborts; a task blocked on a communication relation aborts when
		// the relation releases it (waking it here would corrupt the
		// relation's waiter bookkeeping).
	}
}

// jobAborted is panicked inside a Go body's coroutine when its driver lands
// an abort, and recovered by the coroutine's job scope (cobody.go).
type jobAborted struct{}

// IRQ fault injection -------------------------------------------------------

// irqFaults carries an interrupt line's injected faults.
type irqFaults struct {
	dropProb float64
	dropSeed int64
	dropSet  bool

	latExtra sim.Time
	latProb  float64
	latSeed  int64

	dropped uint64
}

// InjectDrop makes a fraction of Raise calls vanish: the line is not queued
// and no ISR runs, modelling lost interrupts. Probability zero or one drops
// every raise; decisions are deterministic in seed.
func (q *IRQ) InjectDrop(probability float64, seed int64) {
	if probability < 0 || probability > 1 {
		panic("rtos: IRQ drop probability out of [0, 1]")
	}
	q.faults.dropProb = probability
	q.faults.dropSeed = seed
	q.faults.dropSet = true
}

// InjectLatencySpike adds extra dispatch latency to a fraction of ISR
// activations, modelling a congested interrupt path. Probability zero or one
// affects every activation; decisions are deterministic in seed.
func (q *IRQ) InjectLatencySpike(extra sim.Time, probability float64, seed int64) {
	if extra <= 0 {
		panic("rtos: IRQ latency spike must be positive")
	}
	if probability < 0 || probability > 1 {
		panic("rtos: IRQ latency probability out of [0, 1]")
	}
	q.faults.latExtra = extra
	q.faults.latProb = probability
	q.faults.latSeed = seed
}

// Dropped returns how many Raise calls were lost to an injected drop fault.
func (q *IRQ) Dropped() uint64 { return q.faults.dropped }

// dropRaise decides whether this Raise occurrence is lost.
func (q *IRQ) dropRaise() bool {
	f := &q.faults
	if !f.dropSet {
		return false
	}
	if !faultHit(f.dropProb, f.dropSeed, q.name, q.raised) {
		return false
	}
	f.dropped++
	q.ctrl.cpu.rec.Fault(trace.FaultInjected, "isr:"+q.name, "irq-drop",
		fmt.Sprintf("raise #%d lost", q.raised))
	return true
}

// extraLatency returns the injected latency spike for the upcoming ISR
// activation (zero when none applies).
func (q *IRQ) extraLatency() sim.Time {
	f := &q.faults
	if f.latExtra <= 0 {
		return 0
	}
	if !faultHit(f.latProb, f.latSeed, q.name, q.serviced+1) {
		return 0
	}
	q.ctrl.cpu.rec.Fault(trace.FaultInjected, "isr:"+q.name, "irq-latency",
		fmt.Sprintf("+%v dispatch latency", f.latExtra))
	return f.latExtra
}
