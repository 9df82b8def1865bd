package rtos

import (
	"fmt"

	"repro/internal/fifo"
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
// checking — only the invocation mechanism differs: one dedicated scheduler
// thread per core performs the switch-out and dispatch halves. It produces
// exactly the same simulated timing as the procedural engine but needs two
// extra kernel thread switches per scheduling action (into and out of the
// RTOS thread), which is why the paper discards it for efficiency.
type threadedEngine struct {
	cpu    *Processor
	rtkRun *sim.Event
	// outgoing holds, per core, the tasks that left the Running state there
	// and whose context save + dispatch that core's RTOS thread must
	// perform, in order.
	outgoing []fifo.Queue[*Task]
}

func newThreadedEngine(cpu *Processor) *threadedEngine {
	return &threadedEngine{
		cpu:      cpu,
		rtkRun:   cpu.k.NewEvent(cpu.name + ".RTKRun"),
		outgoing: make([]fifo.Queue[*Task], len(cpu.cores)),
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

// run is one core's RTOS scheduler thread. It loops forever: process pending
// switch-out requests, dispatch a claimed or idle core, request preemption
// when the policy demands it, and otherwise sleep on RTKRun (shared by all
// cores; spurious wakes fall through to the default case).
func (e *threadedEngine) run(p *sim.Proc, c *core) {
	cpu := e.cpu
	out := &e.outgoing[c.id]
	for {
		switch {
		case out.Len() > 0:
			cpu.switchOutOn(p, c, out.Pop())
		case c.claimant != nil:
			// A ready task claimed this idle core (taskIsReady); run the
			// election for it on the RTOS thread. The claim is held across the
			// scheduling window — elections on other cores must keep skipping
			// the claimant — and released only at this core's own election,
			// with no settle in between (the procedural grantSchedLoad path
			// follows the same protocol).
			t := c.claimant
			p.WaitDelta() // settle, as the procedural idle wakeup does
			cpu.charge(p, trace.OverheadScheduling, nil, cpu.overheadCtxOn(c, nil))
			p.WaitDelta()
			cpu.clearClaim(t)
			elected := cpu.electOn(c)
			if elected == nil {
				c.switching = false
				continue
			}
			elected.grant(grantLoad, c.id)
			if elected != t {
				// The claimant lost the election to a later arrival and is
				// back to plain queued; if another eligible core sits idle,
				// claim it so the task is not stranded.
				if cpu.claimIdleCore(t) != nil {
					e.rtkRun.Notify()
				}
			}
		case c.running == nil && !c.switching && cpu.hasUnclaimedReady(c):
			c.switching = true
			p.WaitDelta() // settle, as the procedural idle wakeup does
			cpu.dispatchOn(p, c)
		case c.running != nil && !c.switching:
			cpu.checkPreemptOn(c)
			p.WaitEvent(e.rtkRun)
		default:
			p.WaitEvent(e.rtkRun)
		}
	}
}

// taskIsReady enqueues the task, claims an idle core for it when one is
// available, and wakes the RTOS threads, which make all scheduling
// decisions.
func (e *threadedEngine) taskIsReady(t *Task) {
	if t.state == trace.StateReady || t.state == trace.StateRunning || t.state == trace.StateTerminated {
		return
	}
	e.cpu.enqueueReady(t)
	e.cpu.claimIdleCore(t)
	e.rtkRun.Notify()
}

// switchOut hands the switch-out to the vacated core's RTOS thread, which
// charges all overhead except the elected task's context load.
func (e *threadedEngine) switchOut(c *core, t *Task) bool {
	e.outgoing[c.id].Push(t)
	e.rtkRun.Notify()
	return true
}

func (e *threadedEngine) reevaluate() {
	e.rtkRun.Notify()
}
