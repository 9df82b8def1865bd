package sim

// Strand is a continuation driver: a Method bundled with a private timer
// event, the kernel-side harness for running task bodies expressed as
// resumable state machines instead of threads. Where a Proc suspends its
// coroutine in Wait and pays a switch into and out of it per activation, a
// Strand's step function runs inline in the evaluate phase and simply
// returns after advancing its state machine — control never leaves the
// scheduler loop and no stack is retained between resumes.
//
// The step function learns why it ran from Trigger() (the sensitivity event
// that fired; TimedOut reports whether it was the private timer) and models
// a timed sleep by arming the timer with WakeIn/WakeAt/WakeDelta and
// returning. Strands follow Method rules: step must run to completion and
// must not call the blocking Wait primitives.
//
// A strand stands in for a process, so the kernel's failure diagnosis
// treats it as one: a panic out of its step is reported as a *SimError
// naming the strand, and a strand whose wait report (SetWaitReport) is
// non-empty counts as blocked for deadlock detection.
type Strand struct {
	k      *Kernel
	name   string
	m      Method
	timer  Event // the private timer, named after the strand
	st     Stepper
	waitOn WaitReporter
	// startLate marks a first resume waiting for the process phase
	// (StartWithProcesses).
	startLate bool
}

// Stepper is a strand's state machine: Step advances it by one resume.
type Stepper interface {
	Step(*Strand)
}

// Stopper is implemented by a strand state machine that holds resources
// outside the kernel — the coroutine of an rtos task body. Kernel.Shutdown
// calls Stop on it, on the Shutdown caller's goroutine, so a shut-down
// kernel leaves no goroutine behind. Stop may be called more than once.
type Stopper interface {
	Stop()
}

// StepFunc adapts a function to the Stepper interface.
type StepFunc func(*Strand)

// Step calls f(s).
func (f StepFunc) Step(s *Strand) { f(s) }

// WaitReporter names what a strand's state machine is waiting on, or
// returns "" when it is not waiting (it finished, or it never blocks).
type WaitReporter interface {
	WaitingOn() string
}

// NewStrand creates a continuation driver executing st, sensitive to the
// given events plus its own private timer. With initial true the strand runs
// once at the start of the simulation, like a default-initialized method.
func (k *Kernel) NewStrand(name string, st Stepper, initial bool, sensitivity ...*Event) *Strand {
	s := &Strand{}
	k.InitStrand(s, name, st, initial, sensitivity...)
	return s
}

// InitStrand is NewStrand in place, for a strand embedded in a larger
// structure (its state machine's, typically). s must not be copied
// afterwards.
func (k *Kernel) InitStrand(s *Strand, name string, st Stepper, initial bool, sensitivity ...*Event) {
	if st == nil {
		panic("sim: NewStrand with nil state machine")
	}
	*s = Strand{k: k, name: name, st: st, timer: Event{k: k, name: name}}
	k.initMethod(&s.m, name, nil, sensitivity)
	s.m.strand = s
	s.SensitiveTo(&s.timer)
	if initial {
		s.m.Trigger()
	}
	k.strands = append(k.strands, s)
}

// SensitiveTo adds e to the strand's sensitivity list, also after the
// simulation started: a strand created before the event existed can still
// follow it.
func (s *Strand) SensitiveTo(e *Event) { e.addMethod(&s.m) }

// step counts the resume and advances the state machine. A panic out of
// the state machine is attributed to the strand, as a process panic is to
// the process.
func (s *Strand) step() {
	s.k.strandResumes++
	s.k.mStrandResumes.Inc()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*SimError); !ok {
				r = &SimError{At: s.k.now, Proc: s.name, PanicValue: r}
			}
			panic(r)
		}
	}()
	s.st.Step(s)
}

// StartWithProcesses schedules the strand's initial resume where a process
// spawned now would take its first step: after the methods queued at
// elaboration have run, one strand at a time in creation order, before the
// processes are dispatched. A strand that drives a thread-style body (a
// coroutine) keeps the thread's place in the start-up order this way; pass
// initial false to NewStrand when using it.
func (s *Strand) StartWithProcesses() {
	if !s.startLate {
		s.startLate = true
		s.k.lateStarts++
		s.k.lateScan = 0
	}
}

// SetWaitReport installs r as the strand's wait report. The kernel consults
// it only when it diagnoses a run's end: a strand reporting a wait is
// listed by BlockedProcs, and with nothing left to happen it makes the run
// a deadlock instead of a quiescent finish.
func (s *Strand) SetWaitReport(r WaitReporter) { s.waitOn = r }

// Name returns the strand's name.
func (s *Strand) Name() string { return s.name }

// Kernel returns the kernel the strand runs on.
func (s *Strand) Kernel() *Kernel { return s.k }

// Trigger returns the sensitivity event whose firing caused the current/last
// resume, nil for the initial run or a manual Run.
func (s *Strand) Trigger() *Event { return s.m.LastTrigger() }

// TimedOut reports whether the current resume was caused by the private
// timer (a WakeIn/WakeAt/WakeDelta expiring) rather than a sensitivity event.
func (s *Strand) TimedOut() bool { return s.m.LastTrigger() == &s.timer }

// Run queues the strand to resume in the current evaluate phase regardless
// of its sensitivity list.
func (s *Strand) Run() { s.m.Trigger() }

// WakeIn arms the private timer to resume the strand after duration d.
// WakeIn(0) is equivalent to WakeDelta. The usual event override rules
// apply: an earlier pending wake wins.
func (s *Strand) WakeIn(d Time) { s.timer.NotifyIn(d) }

// WakeAt arms the private timer to resume the strand at absolute time t.
func (s *Strand) WakeAt(t Time) { s.timer.NotifyAt(t) }

// WakeDelta arms the private timer to resume the strand in the next delta
// cycle.
func (s *Strand) WakeDelta() { s.timer.NotifyDelta() }

// CancelWake cancels a pending timer wake, if any.
func (s *Strand) CancelWake() { s.timer.Cancel() }

// WakePending reports whether a timer wake is pending.
func (s *Strand) WakePending() bool { return s.timer.HasPending() }
