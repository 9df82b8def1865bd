package rtos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the task driver, the one implementation of the task side of
// the dispatch protocol: waiting for a grant, charging the context load,
// running its Compute slices with exact preemption, sleeping, blocking on
// communication relations, the periodic release/deadline/recovery cycle and,
// under the procedural engine, hosting the RTOS switch sequence (stepSwitch,
// schedcore.go; the threaded engine's RTOS thread hosts the same steps).
// Each task owns a contDriver, a state machine executed by a sim.Strand — a
// kernel Method with a private timer — so every resume runs inline in the
// evaluate phase, without a process activation.
//
// The driver executes any Continuation (yield.go): a Program, or an ordinary
// Go body running as a coroutine (cobody.go). What a blocking call is in a
// thread becomes a pair of driver states here: "arm a wake and return" then
// "on wake, pick up where the protocol left off". The strand's sensitivity
// covers every event that can concern the task (TaskRun, which also carries
// preemption requests, and interrupt completion), so each state must
// tolerate spurious resumes; timer-armed states filter them with
// WakePending (the private timer still pending means the resume came from a
// sensitivity event, not the timer).

// contState enumerates the driver's wait states: where the state machine
// parks between strand resumes.
type contState uint8

const (
	// dcInit: before elaboration ran the strand's initial resume.
	dcInit contState = iota
	// dcStartWait: waiting for the configured StartAt release instant.
	dcStartWait
	// dcParked: not running and not mid-protocol; waiting for a grant.
	dcParked
	// dcSwitch: hosting a switch sequence (procedural engine); waiting out
	// its current settle delta or overhead charge.
	dcSwitch
	// dcInLoad: elected; waiting out the context-load charge.
	dcInLoad
	// dcExecSlice: running a Compute slice; the timer is armed at the
	// remaining duration, preemption and interrupts wake it early.
	dcExecSlice
	// dcIsrWait: an ISR borrowed the processor; waiting for its completion.
	dcIsrWait
	// dcDone: the task terminated.
	dcDone
)

// afterKind tells afterDispatch why the task had left the processor, i.e.
// which point of the task lifecycle resumes now that it runs again.
type afterKind uint8

const (
	// afStart: first dispatch ever — enter the behaviour.
	afStart afterKind = iota
	// afExec: back from a preemption inside a Compute slice.
	afExec
	// afHang: back from an injected hang inside a Compute slice.
	afHang
	// afYield: back from a voluntary YieldCPU.
	afYield
	// afBodySleep: back from a WaitFor inside the job body.
	afBodySleep
	// afJitterSleep: back from the periodic wrapper's release-jitter sleep.
	afJitterSleep
	// afReleaseSleep: back from the periodic wrapper's end-of-cycle sleep.
	afReleaseSleep
	// afAcquire: back from a blocking re-attempt op (mutex, queue).
	afAcquire
	// afAwait: back from a grant-on-resume op (comm event).
	afAwait
	// afResume: back from a Suspend; the body completes the operation.
	afResume
)

// contNext is the trampoline vocabulary: what advance should run next. Using
// returned tags instead of direct calls keeps back-to-back same-instant
// cycles (an overrunning periodic task) from recursing without bound.
type contNext uint8

const (
	// nextParked: the driver armed a wake and parked; return to the kernel.
	nextParked contNext = iota
	// nextProgram: resume the continuation body for its next yield op.
	nextProgram
	// nextJobEnd: the body finished; run job completion.
	nextJobEnd
	// nextCycle: start the next periodic cycle (deadline, jitter).
	nextCycle
	// nextBody: enter the cycle body (after the jitter sleep, if any).
	nextBody
)

// contDriver executes one task.
type contDriver struct {
	t    *Task
	cpu  *Processor
	s    sim.Strand
	cont Continuation

	state contState
	after afterKind
	// pendingOp holds the blocking yield op the task is parked on.
	pendingOp Yield
	// runName names the task's TaskRun wait in diagnoses; built on demand.
	runName string

	// inCore is the core of the dispatch in flight and chargeStart the start
	// instant of its context-load charge. sw is the task's latest switch
	// sequence: its own switch-out (hosted here, or by the threaded engine's
	// RTOS thread) or, under the procedural engine, an idle-core claim;
	// outFinal is the state the driver settles in after a switch.
	inCore      *core
	chargeStart sim.Time
	sw          switchSeq
	outFinal    contState

	// remaining/sliceStart track the Compute slice in flight.
	remaining  sim.Time
	sliceStart sim.Time

	// Periodic-wrapper state: the release schedule of NewPeriodicContTask.
	periodic    bool
	relDeadline sim.Time
	cycle       int
	release     sim.Time
	watch       *deadlineWatch
}

// NewContTask creates a task running a continuation body on the processor:
// the hand-written form of a task body, a Program or any Continuation. The
// body runs once (Finish terminates the task); use NewPeriodicContTask for
// cyclic tasks. NewTask is the same with an ordinary Go body.
func (cpu *Processor) NewContTask(name string, cfg TaskConfig, body Continuation) *Task {
	if body == nil {
		panic("rtos: NewContTask with nil continuation")
	}
	return cpu.newContTask(name, cfg, body, coBody{}, false, 0, nil)
}

// NewPeriodicContTask creates a periodic task running a continuation body
// each cycle; NewPeriodicTask is the same with an ordinary Go body.
//
// Each cycle sets the absolute deadline from cfg.Deadline (defaulting to
// the period), runs the body, then sleeps until the next release (first
// release at cfg.StartAt). A deadline watchdog checks each cycle at its
// absolute deadline instant — not at completion — so a miss is reported
// even for a cycle that never completes (a starved task). If a cycle
// overruns its period the next release happens immediately.
func (cpu *Processor) NewPeriodicContTask(name string, cfg TaskConfig, body Continuation) *Task {
	if cfg.Period <= 0 {
		panic("rtos: NewPeriodicContTask requires a positive period")
	}
	if body == nil {
		panic("rtos: NewPeriodicContTask with nil continuation")
	}
	return cpu.newPeriodicTask(name, cfg, body, coBody{})
}

// newPeriodicTask creates a periodic task running body or the Go body in co
// (see newContTask).
func (cpu *Processor) newPeriodicTask(name string, cfg TaskConfig, body Continuation, co coBody) *Task {
	if cfg.Jitter < 0 || cfg.Jitter >= cfg.Period {
		if cfg.Jitter != 0 {
			panic("rtos: periodic release jitter must be in [0, period)")
		}
	}
	relDeadline := cfg.Deadline
	if relDeadline == 0 {
		relDeadline = cfg.Period
	}
	w := newDeadlineWatch(cpu, name, cfg.StartAt+relDeadline)
	t := cpu.newContTask(name, cfg, body, co, true, relDeadline, w)
	w.tsk = t
	t.registerTaskMetrics(cpu.sys.Metrics)
	return t
}

// newContTask creates a task running body, a Continuation, or else the Go
// body in co (coroutine fields unset), run as a coroutine.
func (cpu *Processor) newContTask(name string, cfg TaskConfig, body Continuation, co coBody, periodic bool, relDeadline sim.Time, w *deadlineWatch) *Task {
	if cfg.Affinity < 0 || cfg.Affinity >= len(cpu.cores) {
		panic(fmt.Sprintf("rtos: task %q affinity %d out of range for %d-core processor %q",
			name, cfg.Affinity, len(cpu.cores), cpu.name))
	}
	if cfg.Affinity != 0 && cpu.domain == DomainGlobal {
		panic(fmt.Sprintf("rtos: task %q sets a core affinity but processor %q schedules globally", name, cpu.name))
	}
	t := &Task{
		name:      name,
		cpu:       cpu,
		cfg:       cfg,
		basePrio:  cfg.Priority,
		deadline:  sim.TimeMax,
		period:    cfg.Period,
		state:     trace.StateCreated,
		affinity:  cfg.Affinity,
		lastCore:  -1,
		claimedBy: -1,
	}
	if cfg.Deadline > 0 {
		t.deadline = cfg.StartAt + cfg.Deadline
	}
	t.ctx.t = t
	cpu.k.InitEvent(&t.evRun, name)
	d := &t.drv
	*d = contDriver{
		t: t, cpu: cpu, cont: body,
		periodic: periodic, relDeadline: relDeadline, watch: w,
		release: cfg.StartAt, after: afStart,
	}
	if body == nil {
		t.co = co
		t.co.t = t
		t.ctx.co = &t.co
		d.cont = &t.co
	}
	cpu.k.InitStrand(&d.s, name, d, body != nil, &t.evRun)
	if body == nil {
		// A Go body starts where a thread starts: after the Program bodies,
		// which start with the methods.
		d.s.StartWithProcesses()
	}
	if ic := cpu.irqCtrl; ic != nil {
		d.s.SensitiveTo(ic.doneEv)
	}
	d.s.SetWaitReport(d)
	cpu.tasks = append(cpu.tasks, t)
	return t
}

// WaitingOn names what the task waits on, for deadlock diagnosis (the
// strand's wait report): the communication object of a pending blocking
// op, otherwise its TaskRun event (a dispatch, a sleep or a hang); "" once
// the task terminated.
func (d *contDriver) WaitingOn() string {
	if d.state == dcDone {
		return ""
	}
	if d.state == dcParked && d.pendingOp.object != "" {
		switch d.after {
		case afAcquire, afAwait, afResume:
			return d.pendingOp.object
		}
	}
	if d.runName == "" {
		d.runName = d.t.name + ".TaskRun"
	}
	return d.runName
}

// Stop closes a Go body's coroutine at kernel shutdown (sim.Stopper).
func (d *contDriver) Stop() { d.t.co.close() }

// Step is the strand entry point (sim.Stepper): route the resume to the
// parked state's handler. Timer-armed states treat a still-pending timer as
// proof the resume came from a sensitivity event and ignore it (interrupt
// completion broadcasts to every task's strand, for instance).
func (d *contDriver) Step(s *sim.Strand) {
	d.cpu.met.contResumes.Inc()
	switch d.state {
	case dcInit:
		d.init()
	case dcStartWait:
		if !s.WakePending() {
			d.becomeReady()
		}
	case dcParked:
		d.tryGrant()
	case dcSwitch:
		if !s.WakePending() {
			d.runSwitch()
		}
	case dcInLoad:
		if !s.WakePending() {
			d.completeDispatch()
		}
	case dcExecSlice:
		d.sliceWake()
	case dcIsrWait:
		d.isrWake()
	case dcDone:
		// Terminated; late wakes (a broadcast doneEv) are ignored.
	}
}

// init is the task's prologue: record Created, wait out StartAt, become
// ready.
func (d *contDriver) init() {
	t := d.t
	t.setState(trace.StateCreated)
	if t.cfg.StartAt > 0 {
		d.state = dcStartWait
		d.s.WakeIn(t.cfg.StartAt)
		return
	}
	d.becomeReady()
}

func (d *contDriver) becomeReady() {
	d.state = dcParked
	d.cpu.taskIsReady(d.t)
	d.maybeGrant()
}

// maybeGrant processes a grant already pending while the driver is parked.
// Needed because a grant arriving mid-sequence has its TaskRun notify
// consumed by a state that ignores it; on reaching dcParked the grant must
// be picked up without waiting for another notify.
func (d *contDriver) maybeGrant() {
	if d.state == dcParked && d.t.pendingGrant != grantNone {
		d.tryGrant()
	}
}

// tryGrant consumes a pending grant: the head of a dispatch.
func (d *contDriver) tryGrant() {
	t := d.t
	if t.pendingGrant == grantNone || t.leaving() {
		return // spurious wake, or a grant held until the switch-out ends
	}
	g := t.pendingGrant
	t.pendingGrant = grantNone
	d.inCore = &d.cpu.cores[t.grantCore]
	switch g {
	case grantSchedLoad:
		// Idle-core wakeup (procedural engine): this driver runs the switch
		// sequence for the core it claimed. Other tasks arriving during the
		// scheduling window take part in the election.
		d.sw = switchSeq{c: d.inCore, claimant: t}
		d.state = dcSwitch
		d.runSwitch()
	case grantLoad:
		// Elected by another task's driver or the RTOS thread, which
		// already removed us from the queue.
		d.beginLoad()
	}
}

// runSwitch advances the hosted switch sequence to its next wait, arming
// the strand for it. When the sequence ends, the elected task is granted its
// context load — unless it is this driver's own claimant task, which goes
// straight to its load. A claimant that lost its election to a later arrival
// is back to plain queued and claims another idle core if one is eligible.
// The driver then settles in its final state; after a switch-out the winner
// may be this very task, yielding straight back onto the core, and
// finishOut's maybeGrant picks its grant up.
func (d *contDriver) runSwitch() {
	cpu, t, sw := d.cpu, d.t, &d.sw
	switch w, dur := cpu.stepSwitch(sw); w {
	case switchDelta:
		d.s.WakeDelta()
		return
	case switchTime:
		d.s.WakeIn(dur)
		return
	}
	if sw.claimant == t && sw.elected == t {
		d.beginLoad()
		return
	}
	if sw.elected != nil {
		sw.elected.grant(grantLoad, sw.c.id)
	}
	if sw.claimant == t {
		if c2 := cpu.claimIdleCore(t); c2 != nil {
			t.grant(grantSchedLoad, c2.id)
		}
	}
	d.finishOut()
}

// beginLoad starts the context-load charge; completion makes the task run.
func (d *contDriver) beginLoad() {
	cpu, t, c := d.cpu, d.t, d.inCore
	dur := cpu.overheadDur(trace.OverheadContextLoad, cpu.overheadCtxOn(c, t))
	d.chargeStart = cpu.k.Now()
	if dur > 0 {
		d.state = dcInLoad
		d.s.WakeIn(dur)
		return
	}
	d.completeDispatch()
}

func (d *contDriver) completeDispatch() {
	cpu, t, c := d.cpu, d.t, d.inCore
	cpu.recordCharge(trace.OverheadContextLoad, t, c.id, d.chargeStart, cpu.k.Now())
	cpu.finishDispatch(t, c)
	d.afterDispatch()
}

// afterDispatch resumes the task lifecycle at the point recorded when it
// left the processor.
func (d *contDriver) afterDispatch() {
	t := d.t
	switch d.after {
	case afStart:
		t.inJob = true
		if d.periodic {
			d.advance(nextCycle)
		} else {
			d.cont.Reset()
			d.advance(nextProgram)
		}
	case afExec:
		d.advance(d.sliceStep())
	case afHang:
		t.hung = false
		d.advance(d.sliceStep())
	case afYield:
		d.advance(nextProgram)
	case afBodySleep:
		// A sleep's post-dispatch abort checkpoint.
		if t.abortPending {
			d.advance(d.jobAbort())
			return
		}
		d.advance(nextProgram)
	case afJitterSleep, afReleaseSleep:
		// An abort landing at a wrapper-level sleep lands outside any cycle,
		// past the cycle recovery scope: the task terminates ("one-shot job
		// aborted").
		if t.abortPending {
			t.abortPending = false
			d.advance(d.terminalAbort())
			return
		}
		if d.after == afJitterSleep {
			d.advance(nextBody)
		} else {
			d.advance(nextCycle)
		}
	case afAcquire:
		// Re-attempt op (mutex, queue): another waiter may have won the
		// race while we were dispatched; block again if so.
		if d.pendingOp.attempt(&t.ctx) {
			d.advance(nextProgram)
			return
		}
		d.blockOnOp()
	case afAwait:
		// Grant-on-resume op (comm event): the occurrence was granted by
		// the resume itself; record the wakeup and continue.
		d.pendingOp.wake(&t.ctx)
		d.advance(nextProgram)
	case afResume:
		d.advance(nextProgram)
	}
}

// advance is the driver's trampoline: dispatch trampoline tags until the
// machine parks. Tags instead of calls keep an overrunning periodic task —
// whose cycles chain back-to-back at the same instant without leaving the
// processor — from recursing cycleStart -> runOps -> jobEnd -> cycleStart.
func (d *contDriver) advance(n contNext) {
	for {
		switch n {
		case nextParked:
			return
		case nextProgram:
			n = d.runOps()
		case nextJobEnd:
			n = d.jobEnd()
		case nextCycle:
			n = d.cycleStart()
		case nextBody:
			n = d.startBody()
		}
	}
}

// runOps resumes the continuation body and executes yield ops until one
// parks the driver or the job finishes. Inline ops (and zero-duration
// computes) loop here without leaving kernel context.
func (d *contDriver) runOps() contNext {
	t := d.t
	for {
		y := d.cont.Resume(&t.ctx)
		switch y.kind {
		case yieldFinish:
			return nextJobEnd
		case yieldCompute, yieldComputeFn:
			dur := y.d
			if y.kind == yieldComputeFn {
				dur = y.dur(&t.ctx)
			}
			if dur < 0 {
				panic("rtos: Execute with negative duration")
			}
			if t.state != trace.StateRunning {
				panic(fmt.Sprintf("rtos: Execute called by task %q in state %v", t.name, t.state))
			}
			d.remaining = t.inflateWCET(t.cpu.scaleExec(dur))
			if n := d.sliceStep(); n != nextProgram {
				return n
			}
		case yieldSleep:
			if y.d < 0 {
				panic("rtos: Delay with negative duration")
			}
			if y.d == 0 {
				continue
			}
			t.armDelayWake().NotifyIn(y.d)
			d.after = afBodySleep
			d.switchOut(trace.StateWaiting, dcParked)
			return nextParked
		case yieldYieldCPU:
			d.after = afYield
			d.switchOut(trace.StateReady, dcParked)
			return nextParked
		case yieldAcquire:
			if y.attempt(&t.ctx) {
				continue
			}
			d.pendingOp = y
			d.after = afAcquire
			d.blockOnOp()
			return nextParked
		case yieldAwait:
			if y.attempt(&t.ctx) {
				continue
			}
			d.pendingOp = y
			d.after = afAwait
			d.switchOut(trace.StateWaiting, dcParked)
			return nextParked
		case yieldSuspend:
			// The body's own attempt already queued the task as a waiter.
			d.pendingOp = y
			d.after = afResume
			d.blockOnOp()
			return nextParked
		}
	}
}

// blockOnOp parks the task on its pending blocking op.
func (d *contDriver) blockOnOp() {
	s := trace.StateWaiting
	if d.pendingOp.resource {
		s = trace.StateWaitingResource
	}
	d.switchOut(s, dcParked)
}

// sliceStep is the head of a Compute: run the abort/hang/ISR/preempt
// checkpoints, then arm a slice for the remaining duration. It returns
// nextProgram once the remaining duration is exhausted.
func (d *contDriver) sliceStep() contNext {
	t, cpu := d.t, d.cpu
	for d.remaining > 0 {
		// Abort and hang checkpoints: an injected crash, a deadline-miss
		// recovery or a watchdog restart takes effect here; an injected hang
		// parks the task in place, preserving the remaining duration.
		if t.abortPending {
			return d.jobAbort()
		}
		if t.hangPending {
			d.enterHang()
			return nextParked
		}
		if ic := cpu.irqCtrl; ic != nil && ic.active != nil {
			// An ISR has borrowed the processor: wait in place (no RTOS
			// call, no context switch) until interrupt handling completes.
			d.state = dcIsrWait
			return nextParked
		}
		if t.preemptPending && t.preemptible() {
			// The paper's TaskIsPreempted: back to the ready queue.
			d.after = afExec
			d.switchOut(trace.StateReady, dcParked)
			return nextParked
		}
		t.preemptPending = false // stale request while non-preemptible
		d.sliceStart = cpu.k.Now()
		d.state = dcExecSlice
		d.s.WakeIn(d.remaining)
		return nextParked
	}
	return nextProgram
}

// sliceWake ends a Compute slice: the timer expiring means the slice ran to
// completion; any earlier wake (a preemption request, ISR begin) re-enters the
// checkpoint loop with the elapsed time accounted at the wake instant.
func (d *contDriver) sliceWake() {
	t, cpu := d.t, d.cpu
	timedOut := !d.s.WakePending()
	if !timedOut {
		d.s.CancelWake()
	}
	elapsed := cpu.k.Now() - d.sliceStart
	d.remaining -= elapsed
	t.cpuTime += elapsed
	cpu.met.coreBusy[t.lastCore].Add(uint64(elapsed))
	if timedOut {
		d.advance(nextProgram)
		return
	}
	d.advance(d.sliceStep())
}

// isrWake resumes the interrupted slice once interrupt handling completes.
func (d *contDriver) isrWake() {
	if ic := d.cpu.irqCtrl; ic != nil && ic.active != nil {
		return // another line is still being serviced
	}
	d.advance(d.sliceStep())
}

// enterHang makes the task stuck: record the fault, park in Waiting with the
// remaining slice duration preserved, arm the finite-hang wake if any.
func (d *contDriver) enterHang() {
	t := d.t
	t.hangPending = false
	dur := t.hangDur
	detail := "stuck forever (watchdog recovery required)"
	if dur > 0 {
		detail = fmt.Sprintf("stuck for %v", dur)
	}
	t.cpu.rec.Fault(trace.FaultInjected, t.name, "hang", detail)
	t.hung = true
	if dur > 0 {
		t.armDelayWake().NotifyIn(dur)
	}
	d.after = afHang
	d.switchOut(trace.StateWaiting, dcParked)
}

// switchOut takes the task off its core into state s (the paper's
// TaskIsBlocked, or TaskIsPreempted for Ready) and runs the switch sequence
// for the vacated core: under the threaded engine its RTOS thread hosts it,
// under the procedural engine this driver does (runSwitch).
func (d *contDriver) switchOut(s trace.TaskState, final contState) {
	t, cpu := d.t, d.cpu
	c := cpu.leaveRunning(t, s)
	d.outFinal = final
	d.sw = switchSeq{c: c, out: t}
	if cpu.rtk != nil {
		cpu.rtk.switchOut(c, t)
		d.finishOut()
		return
	}
	d.state = dcSwitch
	d.runSwitch()
}

// finishOut closes a switch: the driver enters its recorded final state and
// picks up any grant whose notify was consumed mid-sequence.
func (d *contDriver) finishOut() {
	if d.outFinal == dcDone {
		d.state = dcDone
		return
	}
	d.state = dcParked
	d.maybeGrant()
}

// cycleStart opens one periodic cycle: fresh deadline, deadline watch,
// release jitter. The release schedule anchors at the configured first
// release, not at the first dispatch: a task dispatched late still owes its
// work against the nominal period boundaries.
func (d *contDriver) cycleStart() contNext {
	t, cpu := d.t, d.cpu
	deadline := d.release + d.relDeadline
	t.ctx.SetDeadline(deadline)
	d.watch.armCycle(d.cycle, deadline, cpu.k.Now())
	if j := cpu.sys.releaseJitterFor(t.name, d.cycle, t.cfg.Jitter); j > 0 {
		if at := d.release + j; at > cpu.k.Now() {
			// Jittered activation; the deadline stays nominal.
			t.armDelayWake().NotifyIn(at - cpu.k.Now())
			d.after = afJitterSleep
			d.switchOut(trace.StateWaiting, dcParked)
			return nextParked
		}
	}
	return nextBody
}

// startBody enters the cycle body.
func (d *contDriver) startBody() contNext {
	d.t.inJob = true
	d.cont.Reset()
	return nextProgram
}

// jobEnd completes a job: a periodic cycle, or a one-shot task's body.
func (d *contDriver) jobEnd() contNext {
	t := d.t
	if !d.periodic {
		t.completedCycles++
		t.inJob = false
		d.finishTask()
		return nextParked
	}
	t.inJob = false
	t.hangPending = false
	// The job completed before a requested abort reached a checkpoint: the
	// request is stale, drop it.
	t.abortPending = false
	t.restartPending = false
	t.abortReason = ""
	d.watch.completed = d.cycle
	t.completedCycles++
	t.observeResponse(d.cpu.k.Now() - d.release)
	return d.nextRelease()
}

// nextRelease advances the release schedule and sleeps until the next
// release (or chains straight into the next cycle on overrun).
func (d *contDriver) nextRelease() contNext {
	t, cpu := d.t, d.cpu
	d.release += t.cfg.Period
	if t.skipNext {
		// Skip-next recovery: surrender one release to catch up.
		t.skipNext = false
		d.release += t.cfg.Period
	}
	d.cycle++
	now := cpu.k.Now()
	if d.release > now {
		t.armDelayWake().NotifyIn(d.release - now)
		d.after = afReleaseSleep
		d.switchOut(trace.StateWaiting, dcParked)
		return nextParked
	}
	d.release = now // overrun: re-release immediately
	return nextCycle
}

// jobAbort lands a requested abort at a body checkpoint: a Go body unwinds
// its job first (its deferred calls run now), then the recovery is taken.
func (d *contDriver) jobAbort() contNext {
	t := d.t
	t.abortPending = false
	t.co.abortJob()
	if !d.periodic {
		return d.terminalAbort()
	}
	return d.cycleAbort()
}

// cycleAbort records an aborted cycle and takes the release it leads to.
func (d *contDriver) cycleAbort() contNext {
	t := d.t
	t.inJob = false
	t.hangPending = false
	label := t.abortReason
	if label == "" {
		label = "abort"
	}
	t.abortReason = ""
	t.cpu.rec.Fault(trace.RecoveryTaken, t.name, label, fmt.Sprintf("cycle %d aborted", d.cycle))
	d.watch.completed = d.cycle
	t.abortedCycles++
	if t.restartPending {
		// Restart recovery: re-release immediately with a fresh deadline
		// counted from now.
		t.restartPending = false
		d.release = t.cpu.k.Now()
		d.cycle++
		return nextCycle
	}
	return d.nextRelease()
}

// terminalAbort ends a job outside any cycle recovery scope: the job dies
// and the task terminates.
func (d *contDriver) terminalAbort() contNext {
	t := d.t
	t.inJob = false
	t.abortedCycles++
	label := t.abortReason
	if label == "" {
		label = "abort"
	}
	t.abortReason = ""
	t.cpu.rec.Fault(trace.RecoveryTaken, t.name, label, "one-shot job aborted; task terminates")
	d.finishTask()
	return nextParked
}

// finishTask leaves the processor into the Terminated state and closes a
// Go body's coroutine; the strand never resumes meaningfully again.
func (d *contDriver) finishTask() {
	d.t.co.close()
	d.switchOut(trace.StateTerminated, dcDone)
}
