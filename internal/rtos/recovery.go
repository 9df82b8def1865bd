// This file implements fault tolerance: what the modeled system does when
// things go wrong. Deadline-miss recovery policies decide the fate of a
// periodic job that overruns its deadline; watchdogs detect tasks that stop
// making progress (an injected hang, a livelock, a deadlock on a leaked
// lock) and restart them. Recovery actions are recorded as RecoveryTaken
// trace events so the analysis layer can compute recovery latencies.

package rtos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// MissPolicy selects the automatic recovery action a periodic task takes
// when one of its cycles misses its deadline.
type MissPolicy uint8

const (
	// MissContinue (the default): record the violation and let the late job
	// run to completion; the release schedule is unchanged.
	MissContinue MissPolicy = iota
	// MissAbortJob: abandon the late job at its next abort checkpoint (an
	// Execute or Delay call) and wait for the next scheduled release.
	MissAbortJob
	// MissSkipNextRelease: let the late job run to completion but skip the
	// next release, giving the task a full extra period to catch up.
	MissSkipNextRelease
	// MissRestartTask: abandon the late job and re-release the task
	// immediately, with a fresh deadline counted from the restart instant.
	MissRestartTask
)

var missPolicyNames = [...]string{
	MissContinue:        "continue",
	MissAbortJob:        "abort",
	MissSkipNextRelease: "skip-next",
	MissRestartTask:     "restart",
}

func (p MissPolicy) String() string {
	if int(p) < len(missPolicyNames) {
		return missPolicyNames[p]
	}
	return "invalid"
}

// MissInfo describes one deadline miss to an OnMissHook.
type MissInfo struct {
	// Task is the missing task's name.
	Task string
	// Cycle is the index of the late cycle.
	Cycle int
	// Deadline is the absolute deadline that was missed.
	Deadline sim.Time
	// At is the instant the miss was detected.
	At sim.Time
}

// deadlineMissed applies the task's deadline-miss recovery policy. Called in
// simulation context (the deadline-watch method, or the task itself when it
// is dispatched past its deadline) after the constraint violation has been
// reported.
func (t *Task) deadlineMissed(cycle int, deadline sim.Time) {
	t.cpu.met.misses.Inc()
	t.metMisses.Inc()
	policy := t.cfg.OnMiss
	if t.cfg.OnMissHook != nil {
		policy = t.cfg.OnMissHook(MissInfo{
			Task: t.name, Cycle: cycle, Deadline: deadline, At: t.cpu.k.Now(),
		})
	}
	switch policy {
	case MissContinue:
		// No action; the violation report is the whole story.
	case MissAbortJob:
		t.requestAbort("miss-abort")
	case MissSkipNextRelease:
		t.skipNext = true
		t.cpu.rec.Fault(trace.RecoveryTaken, t.name, "miss-skip",
			fmt.Sprintf("cycle %d late; next release will be skipped", cycle))
	case MissRestartTask:
		t.restartPending = true
		t.requestAbort("miss-restart")
	default:
		panic(fmt.Sprintf("rtos: task %q has invalid miss policy %d", t.name, policy))
	}
}

// Watchdog is a software watchdog timer owned by a processor: task code must
// call Kick more often than the timeout or the watchdog fires, records a
// WatchdogFired trace event and takes its recovery action — restarting the
// monitored task (aborting its in-flight job, waking it even out of an
// injected hang) and/or invoking a user callback. The timer re-arms after
// firing, so a permanently silent task is reported once per timeout.
type Watchdog struct {
	name    string
	cpu     *Processor
	timeout sim.Time
	task    *Task // task restarted on expiry; nil for report-only
	onFire  func(*Watchdog)

	ev    *sim.Event
	kicks uint64
	fired uint64
}

// NewWatchdog creates a watchdog on the processor. The countdown starts at
// the beginning of the simulation; task is the task to restart when the
// watchdog fires (nil makes the watchdog report-only). Create watchdogs
// before the simulation starts.
func (cpu *Processor) NewWatchdog(name string, timeout sim.Time, task *Task) *Watchdog {
	if timeout <= 0 {
		panic("rtos: watchdog timeout must be positive")
	}
	if task != nil && task.cpu != cpu {
		panic(fmt.Sprintf("rtos: watchdog %q on %q cannot guard task %q of %q",
			name, cpu.name, task.name, task.cpu.name))
	}
	w := &Watchdog{name: name, cpu: cpu, timeout: timeout, task: task}
	w.ev = cpu.k.NewEvent(name + ".watchdog")
	cpu.k.NewMethod(name+".watchdogFire", w.fire, false, w.ev)
	w.ev.NotifyIn(timeout)
	return w
}

// Name returns the watchdog's name.
func (w *Watchdog) Name() string { return w.name }

// Timeout returns the watchdog's timeout.
func (w *Watchdog) Timeout() sim.Time { return w.timeout }

// Kicks returns how many times the watchdog was kicked.
func (w *Watchdog) Kicks() uint64 { return w.kicks }

// Fired returns how many times the watchdog expired.
func (w *Watchdog) Fired() uint64 { return w.fired }

// OnFire registers a callback invoked (in simulation context, must not
// block) each time the watchdog fires, after the restart action.
func (w *Watchdog) OnFire(fn func(*Watchdog)) { w.onFire = fn }

// Kick restarts the watchdog countdown. Safe from any simulation context.
func (w *Watchdog) Kick() {
	w.kicks++
	w.ev.Cancel()
	w.ev.NotifyIn(w.timeout)
}

// fire handles a watchdog expiry: record it, restart the guarded task if it
// has a job in flight, notify the callback, re-arm.
func (w *Watchdog) fire() {
	w.fired++
	w.cpu.rec.Fault(trace.WatchdogFired, w.name, "timeout",
		fmt.Sprintf("no kick within %v", w.timeout))
	if t := w.task; t != nil && t.state != trace.StateTerminated && t.inJob {
		t.restartPending = true
		t.requestAbort("watchdog-restart")
	}
	if w.onFire != nil {
		w.onFire(w)
	}
	w.ev.NotifyIn(w.timeout)
}
