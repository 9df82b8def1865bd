package rtos

import (
	"fmt"

	"repro/internal/sim"
)

// threadedEngine is the paper's first implementation (section 4.1): "the
// behavior of the RTOS is also modeled by a SystemC thread. [...] The RTOS
// thread waits on a SystemC event (RTKRun). [...] During the simulation,
// system tasks notify the RTOS thread when they enter or leave the Waiting
// state. Then the RTOS thread runs the scheduling algorithm and decides what
// task in its ReadyTaskQueue must be activated and then notifies it by its
// TaskRun event."
//
// It holds no scheduling logic: the shared schedCore (schedcore.go) makes
// tasks ready, decides preemption at the arrival and elects, exactly as for
// the procedural engine. Only the host of the switch sequence differs: one
// dedicated scheduler thread per core runs stepSwitch, blocking on each of
// its waits. A Processor holds it as rtk, nil under the procedural engine.
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

// newThreadedEngine creates the engine and spawns one RTOS thread per core.
func newThreadedEngine(cpu *Processor) *threadedEngine {
	e := &threadedEngine{
		cpu:      cpu,
		rtkRun:   cpu.k.NewEvent(cpu.name + ".RTKRun"),
		outgoing: make([]*Task, len(cpu.cores)),
	}
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
	return e
}

// run is one core's RTOS scheduler thread. It loops forever: run the switch
// sequence for a task leaving its core or for a claim on its idle core, and
// otherwise sleep on RTKRun (shared by all cores; spurious wakes fall
// through to the default case).
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
				e.wake()
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
			e.wake()
		}
	}
}

// switchOut hands the switch sequence of task t, which just left core c, to
// that core's RTOS thread, which charges all overhead except the elected
// task's context load.
func (e *threadedEngine) switchOut(c *core, t *Task) {
	e.outgoing[c.id] = t
	e.rtkRun.Notify()
}

// wake notifies RTKRun: every RTOS call of the section 4.1 model wakes the
// RTOS threads, which take up a claim on their idle core or sleep again.
// That resume is the per-scheduling-action cost the paper's section 4
// compares. A no-op on a nil engine (the procedural engine has no thread).
func (e *threadedEngine) wake() {
	if e != nil {
		e.rtkRun.Notify()
	}
}
