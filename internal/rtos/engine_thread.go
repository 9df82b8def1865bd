package rtos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// threadedEngine is the paper's first implementation (section 4.1): "the
// behavior of the RTOS is also modeled by a SystemC thread. [...] The RTOS
// thread waits on a SystemC event (RTKRun). [...] During the simulation,
// system tasks notify the RTOS thread when they enter or leave the Waiting
// state. Then the RTOS thread runs the scheduling algorithm and decides what
// task in its ReadyTaskQueue must be activated and then notifies it by its
// TaskRun event."
//
// Like the procedural engine it holds no scheduling logic — the shared
// schedCore (schedcore.go) does all electing, dispatching and preemption
// checking — only the host of the switch sequence differs: one dedicated
// scheduler thread per core runs stepSwitch, blocking on each of its waits.
// It produces exactly the same simulated timing as the procedural engine but
// needs two extra kernel thread switches per scheduling action (into and out
// of the RTOS thread), which is why the paper discards it for efficiency.
type threadedEngine struct {
	cpu    *Processor
	rtkRun *sim.Event
	// outgoing holds, per core, the task that left the Running state there
	// and whose switch sequence that core's RTOS thread has yet to start
	// (nil when none; one slot suffices, as the core runs no other task
	// before that sequence elects one).
	outgoing []*Task
}

func newThreadedEngine(cpu *Processor) *threadedEngine {
	return &threadedEngine{
		cpu:      cpu,
		rtkRun:   cpu.k.NewEvent(cpu.name + ".RTKRun"),
		outgoing: make([]*Task, len(cpu.cores)),
	}
}

func (e *threadedEngine) start() {
	for i := range e.cpu.cores {
		c := &e.cpu.cores[i]
		name := e.cpu.name + ".rtos"
		if c.id > 0 {
			name = fmt.Sprintf("%s.rtos%d", e.cpu.name, c.id)
		}
		p := e.cpu.k.Spawn(name, func(p *sim.Proc) { e.run(p, c) })
		// The scheduler threads idle on RTKRun forever by design; exclude
		// them from the kernel's deadlock accounting.
		p.SetDaemon(true)
	}
}

// run is one core's RTOS scheduler thread. It loops forever: run the switch
// sequence for a task leaving its core or for a claim on its idle core,
// request preemption when the policy demands it, and otherwise sleep on
// RTKRun (shared by all cores; spurious wakes fall through to the default
// case).
func (e *threadedEngine) run(p *sim.Proc, c *core) {
	cpu := e.cpu
	var claim switchSeq
	for {
		var seq *switchSeq
		switch {
		case e.outgoing[c.id] != nil:
			seq = &e.outgoing[c.id].drv.sw
			e.outgoing[c.id] = nil
		case c.claimant != nil && !c.claimant.leaving():
			// A ready task claimed this idle core (taskIsReady).
			claim = switchSeq{c: c, claimant: c.claimant}
			seq = &claim
		case c.running != nil && !c.switching && !cpu.decidesGlobally():
			cpu.checkPreemptOn(c)
			fallthrough
		default:
			p.WaitEvent(e.rtkRun)
			continue
		}
		for w, d := cpu.stepSwitch(seq); w != switchDone; w, d = cpu.stepSwitch(seq) {
			if w == switchDelta {
				p.WaitDelta()
			} else {
				p.Wait(d)
			}
		}
		if t := seq.out; t != nil {
			// t's RTOS call returns: a grant or an idle-core claim that
			// reached it during the sequence takes effect now.
			if t.pendingGrant != grantNone {
				t.evRun.Notify()
			}
			if t.claimedBy >= 0 {
				e.rtkRun.Notify()
			}
		}
		if seq.elected == nil {
			continue
		}
		seq.elected.grant(grantLoad, c.id)
		if t := seq.claimant; t != nil && seq.elected != t && cpu.claimIdleCore(t) != nil {
			// The claimant lost the election to a later arrival and is back
			// to plain queued; another eligible core sat idle, so it claimed
			// that one rather than stay stranded.
			e.rtkRun.Notify()
		}
	}
}

// taskIsReady enqueues the task, claims an idle core for it when one is
// available, and wakes the RTOS threads. Each thread decides preemption for
// its own core when it runs; a multi-core global domain's preemption
// decision spans all cores, so no core's thread owns it and it is taken here,
// at the arrival, as the procedural engine takes it (a thread running later
// would see the other cores a moment on).
func (e *threadedEngine) taskIsReady(t *Task) {
	if t.state == trace.StateReady || t.state == trace.StateRunning || t.state == trace.StateTerminated {
		return
	}
	e.cpu.enqueueReady(t)
	if e.cpu.claimIdleCore(t) == nil && e.cpu.decidesGlobally() {
		e.cpu.checkPreemptArrival(t)
	}
	e.rtkRun.Notify()
}

// switchOut hands the switch sequence to the vacated core's RTOS thread,
// which charges all overhead except the elected task's context load.
func (e *threadedEngine) switchOut(c *core, t *Task) bool {
	e.outgoing[c.id] = t
	e.rtkRun.Notify()
	return true
}

// reevaluate wakes the RTOS threads to re-examine their cores' preemption
// decisions; a global domain's shared decision is re-examined here.
func (e *threadedEngine) reevaluate() {
	if e.cpu.decidesGlobally() {
		e.cpu.reevaluateCores()
	}
	e.rtkRun.Notify()
}
