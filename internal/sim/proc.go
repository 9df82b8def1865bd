package sim

import (
	"fmt"
	"iter"
)

// ProcState is the lifecycle state of a simulation process.
type ProcState uint8

const (
	// ProcNew means the process has been spawned but its body has not
	// started executing yet (lazy start on first activation).
	ProcNew ProcState = iota
	// ProcRunnable means the process is queued to run in the current
	// evaluate phase.
	ProcRunnable
	// ProcRunning means the process is the one currently executing.
	ProcRunning
	// ProcWaiting means the process is suspended on events and/or a timeout.
	ProcWaiting
	// ProcTerminated means the process function has returned or the process
	// was killed at kernel shutdown.
	ProcTerminated
)

func (s ProcState) String() string {
	switch s {
	case ProcNew:
		return "new"
	case ProcRunnable:
		return "runnable"
	case ProcRunning:
		return "running"
	case ProcWaiting:
		return "waiting"
	case ProcTerminated:
		return "terminated"
	}
	return "invalid"
}

// killToken is panicked by a suspended wait to unwind its process at kernel
// shutdown; the coroutine's top recovers it.
type killToken struct{}

// Proc is a simulation thread, the analogue of a SystemC SC_THREAD. The
// process function receives its own *Proc and uses the Wait family of methods
// to advance simulated time. As in SystemC's reference kernel, the body runs
// as a coroutine: a dispatch resumes it inline on the Run caller's goroutine,
// and a Wait suspends it back into the scheduler.
type Proc struct {
	k    *Kernel
	name string
	id   int
	fn   func(*Proc)

	// The body's coroutine, created at the first dispatch: next resumes it,
	// stop unwinds it, and yield (inside the body) suspends it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	state ProcState
	// daemon marks infrastructure processes (RTOS scheduler threads,
	// interrupt controllers) that legitimately wait forever; they are
	// excluded from deadlock accounting.
	daemon bool

	// Wake bookkeeping while waiting.
	waitEvents []*Event    // events subscribed for the current wait
	timeout    *timedEntry // pending timeout entry, nil if none
	wokenBy    *Event      // event that ended the last wait, nil on timeout
	timedOut   bool
	waitGen    uint64 // incremented on every park; guards stale delta timeouts

	// doneEvent fires when the process terminates; created on demand.
	doneEvent *Event

	// sensitivity is the static sensitivity list used by WaitStatic
	// (SystemC's argument-less wait()).
	sensitivity []*Event
}

// Spawn creates a simulation thread named name running fn. Processes spawned
// before Run starts are runnable at time zero; processes spawned during the
// simulation become runnable in the current evaluate phase.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if fn == nil {
		panic("sim: Spawn with nil function")
	}
	p := &Proc{
		k:     k,
		name:  name,
		id:    len(k.procs),
		fn:    fn,
		state: ProcNew,
	}
	k.procs = append(k.procs, p)
	k.makeRunnable(p)
	return p
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// State returns the process lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// SetDaemon marks the process as infrastructure: a daemon blocked forever is
// not a deadlock (it is expected to idle when the model has no work for it).
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Daemon reports whether the process is marked as infrastructure.
func (p *Proc) Daemon() bool { return p.daemon }

// WaitingOn returns the names of the events the process is currently
// subscribed to; empty when the process is not waiting on events (pure
// timeout, delta wait, or not waiting at all).
func (p *Proc) WaitingOn() []string {
	if p.state != ProcWaiting || len(p.waitEvents) == 0 {
		return nil
	}
	names := make([]string, len(p.waitEvents))
	for i, e := range p.waitEvents {
		names[i] = e.name
	}
	return names
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done returns an event notified when the process terminates.
func (p *Proc) Done() *Event {
	if p.doneEvent == nil {
		p.doneEvent = p.k.NewEvent(p.name + ".done")
	}
	return p.doneEvent
}

// resume runs the process until it waits again or terminates; called by the
// kernel's dispatch, which creates the coroutine on the first one. A panic
// out of the body propagates from here as a *SimError naming the process.
func (p *Proc) resume() {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
	}
	p.next()
}

// run is the coroutine: the process function, then its termination. At
// shutdown the suspended wait panics killToken, which unwinds the function
// through its deferred calls to here.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		r := recover()
		k := p.k
		if k.shuttingDown {
			r = nil // Shutdown discards what a dying process raises
		}
		p.state = ProcTerminated
		p.clearWaitState()
		if p.doneEvent != nil && !k.shuttingDown {
			p.doneEvent.Notify()
		}
		if r != nil {
			panic(&SimError{At: k.now, Proc: p.name, PanicValue: r})
		}
	}()
	p.fn(p)
}

// park suspends the calling process until the kernel resumes it. It must only
// be called from the process's own body with wake conditions already
// registered.
func (p *Proc) park() {
	p.waitGen++
	p.state = ProcWaiting
	if !p.yield(struct{}{}) {
		panic(killToken{})
	}
}

// checkContext panics unless the caller is the currently executing process.
func (p *Proc) checkContext(op string) {
	if p.k.current != p {
		panic(fmt.Sprintf("sim: %s called on process %q while it is not running", op, p.name))
	}
}

// clearWaitState unsubscribes from all wait sources.
func (p *Proc) clearWaitState() {
	for _, e := range p.waitEvents {
		e.removeWaiter(p)
	}
	p.waitEvents = p.waitEvents[:0]
	if p.timeout != nil {
		p.k.cancelTimed(p.timeout)
		p.timeout = nil
	}
}

// wakeFromEvent is called by an event firing while p waits on it.
func (p *Proc) wakeFromEvent(e *Event) {
	// The firing event already removed p from its own waiter list; remove p
	// from the other events of a WaitAny and cancel the timeout.
	for _, other := range p.waitEvents {
		if other != e {
			other.removeWaiter(p)
		}
	}
	p.waitEvents = p.waitEvents[:0]
	if p.timeout != nil {
		p.k.cancelTimed(p.timeout)
		p.timeout = nil
	}
	p.wokenBy = e
	p.timedOut = false
	p.k.makeRunnable(p)
}

// wakeFromTimeout is called by the kernel when the timeout entry fires.
func (p *Proc) wakeFromTimeout() {
	for _, e := range p.waitEvents {
		e.removeWaiter(p)
	}
	p.waitEvents = p.waitEvents[:0]
	p.timeout = nil
	p.wokenBy = nil
	p.timedOut = true
	p.k.makeRunnable(p)
}

// Wait suspends the process for duration d of simulated time. Wait(0) yields
// for one delta cycle.
func (p *Proc) Wait(d Time) {
	p.checkContext("Wait")
	if d < 0 {
		panic("sim: Wait with negative duration")
	}
	if d == 0 {
		p.WaitDelta()
		return
	}
	p.timeout = p.k.scheduleTimed(addSat(p.k.now, d), nil, p)
	p.park()
}

// WaitDelta suspends the process for exactly one delta cycle: it resumes at
// the same simulated time, in the next evaluate phase.
func (p *Proc) WaitDelta() {
	p.checkContext("WaitDelta")
	p.k.deltaProcs = append(p.k.deltaProcs, p)
	p.park()
}

// WaitEvent suspends the process until event e fires.
func (p *Proc) WaitEvent(e *Event) {
	p.checkContext("WaitEvent")
	e.addWaiter(p)
	p.waitEvents = append(p.waitEvents, e)
	p.park()
}

// WaitAny suspends the process until any of the given events fires and
// returns the event that woke it.
func (p *Proc) WaitAny(events ...*Event) *Event {
	p.checkContext("WaitAny")
	if len(events) == 0 {
		panic("sim: WaitAny with no events")
	}
	for _, e := range events {
		e.addWaiter(p)
		p.waitEvents = append(p.waitEvents, e)
	}
	p.park()
	return p.wokenBy
}

// SetSensitivity installs the process's static sensitivity list, the events
// an argument-less wait resumes on (SystemC's `sensitive << e1 << e2`).
// Callable from any context, typically at elaboration.
func (p *Proc) SetSensitivity(events ...*Event) {
	p.sensitivity = append(p.sensitivity[:0], events...)
}

// WaitStatic suspends the process until any event of its static sensitivity
// list fires and returns the trigger — the analogue of SystemC's wait()
// inside a statically sensitive thread.
func (p *Proc) WaitStatic() *Event {
	p.checkContext("WaitStatic")
	if len(p.sensitivity) == 0 {
		panic(fmt.Sprintf("sim: WaitStatic on process %q with no sensitivity list", p.name))
	}
	return p.WaitAny(p.sensitivity...)
}

// WaitAll suspends the process until every one of the given events has
// fired at least once (SystemC's AND-list wait). The events are observed
// one wake at a time: an event firing in the same delta cycle as another,
// before the process has re-subscribed, is missed — the same behaviour as a
// SystemC dynamic and-list.
func (p *Proc) WaitAll(events ...*Event) {
	p.checkContext("WaitAll")
	if len(events) == 0 {
		panic("sim: WaitAll with no events")
	}
	remaining := append([]*Event(nil), events...)
	for len(remaining) > 0 {
		woke := p.WaitAny(remaining...)
		for i, e := range remaining {
			if e == woke {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
}

// WaitTimeout suspends the process until one of the events fires or duration
// d elapses, whichever comes first. It returns the waking event and false,
// or nil and true on timeout. This primitive is the foundation of the RTOS
// model's time-accurate preemptible execution.
func (p *Proc) WaitTimeout(d Time, events ...*Event) (woke *Event, timedOut bool) {
	p.checkContext("WaitTimeout")
	if d < 0 {
		panic("sim: WaitTimeout with negative duration")
	}
	if len(events) == 0 {
		p.Wait(d)
		return nil, true
	}
	if d == 0 {
		// A zero timeout still waits a delta so a simultaneous immediate
		// notification can win; schedule the timeout as a delta wake. The
		// generation guard discards the wake if an event got there first.
		p.k.deltaTimeouts = append(p.k.deltaTimeouts, deltaTimeout{p, p.waitGen + 1})
	} else {
		p.timeout = p.k.scheduleTimed(addSat(p.k.now, d), nil, p)
	}
	for _, e := range events {
		e.addWaiter(p)
		p.waitEvents = append(p.waitEvents, e)
	}
	p.park()
	return p.wokenBy, p.timedOut
}
