package rtos

import "repro/internal/trace"

// proceduralEngine is the paper's second, faster implementation (section
// 4.2): "the RTOS is implemented by a C++ object with a set of methods, but
// without using a thread. Each task notifies the other ones by using methods
// of the RTOS object."
//
// The engine holds no scheduling logic of its own — election, dispatch,
// preemption checking, overhead accounting and the switch sequence live in
// the shared schedCore (schedcore.go). What this engine decides is *who*
// runs them: the switch sequence (context save, scheduling, election) runs on
// the driver of the task leaving the processor, or of the task that claimed
// an idle core, and the context load on the driver of the elected task
// (Figure 5; engine_cont.go). Scheduling adds no kernel thread of its own,
// so the simulation runs with far fewer activations than the threaded
// engine.
type proceduralEngine struct {
	cpu *Processor
}

func (e *proceduralEngine) start() {}

// taskIsReady is the paper's TaskIsReady primitive, executed in the caller's
// context. It never consumes the caller's simulated time: if an eligible
// core is idle, the awakened task claims it and its own driver runs the
// scheduler (grantSchedLoad); otherwise, if the scheduling policy allows
// preemption, the ready task "sends the TaskPreempt event to the running
// task".
func (e *proceduralEngine) taskIsReady(t *Task) {
	cpu := e.cpu
	if t.state == trace.StateReady || t.state == trace.StateRunning || t.state == trace.StateTerminated {
		return
	}
	cpu.enqueueReady(t)
	if c := cpu.claimIdleCore(t); c != nil {
		// Idle core: wake the task; its driver runs the switch sequence for
		// the claimed core (another task arriving during the scheduling
		// window may win the election) and then its own context load.
		t.grant(grantSchedLoad, c.id)
		return
	}
	cpu.checkPreemptArrival(t)
}

// switchOut declines: the switch sequence runs on the leaving task's own
// driver. That is the paper's TaskIsBlocked ("called by a task that enters
// the Waiting state. The scheduling algorithm must select another task to
// run and notifies it with the TaskRun event") and TaskIsPreempted (called
// "by the running task when receiving the TaskPreempt event").
func (e *proceduralEngine) switchOut(c *core, t *Task) bool { return false }

func (e *proceduralEngine) reevaluate() {
	e.cpu.reevaluateCores()
}
