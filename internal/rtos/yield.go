package rtos

import (
	"repro/internal/comm"
	"repro/internal/sim"
)

// This file defines the yield-op vocabulary of the task driver
// (engine_cont.go). Every task body reaches the driver as a Continuation: a
// resumable body that returns a Yield describing its next
// scheduling-relevant operation and is resumed — on the kernel's own
// goroutine — when that operation completes. An ordinary Go body is
// adapted by running it as a coroutine whose blocking TaskCtx calls yield
// these ops (cobody.go); a Program spells them out. The two forms map one
// for one:
//
//	Go body                   Program / Continuation
//	ctx.Execute(d)            Compute(d)
//	ctx.Delay(d)              WaitFor(d)
//	ctx.Yield()               YieldCPU()
//	mutex.Lock(ctx)           LockMutex(m)
//	event.Wait(ctx)           WaitOn(e)
//	queue.Put(ctx, v)         PutMsg(q, v)
//	queue.Get(ctx)            GetMsg(q, &dst)
//	return                    Finish()
//
// Non-blocking calls (Unlock, Signal, TryPut, SetPriority, Kick, Raise...)
// need no yield: run them inline before returning the next Yield, or as a
// ProgramBuilder.Do step.

// Continuation is a task body in resumable form. Resume advances the state
// machine and returns the next yield op; it runs in kernel context (a
// sim.Method) and must not block. Reset rewinds the body to its start: the
// engine calls it before the first job and before each periodic cycle.
type Continuation interface {
	Resume(*TaskCtx) Yield
	Reset()
}

// yieldKind discriminates the yield ops. The zero value is yieldFinish so a
// zero Yield ends the job, which lets Resume fall off the end of a Program
// safely.
type yieldKind uint8

const (
	yieldFinish yieldKind = iota
	yieldCompute
	yieldComputeFn
	yieldSleep
	yieldYieldCPU
	yieldAcquire
	yieldAwait
	// yieldSuspend blocks on a relation whose own attempt already queued the
	// task as a waiter (TaskCtx.Suspend, the comm.Actor contract).
	yieldSuspend
)

// Yield is one scheduling-relevant operation of a continuation task body.
// Build values with the constructors below; the zero value is Finish().
type Yield struct {
	kind yieldKind
	d    sim.Time
	// resource selects the WaitingResource trace state for blocking acquire
	// ops (mutual exclusion) over the plain Waiting state.
	resource bool
	// object names the relation a blocking op waits on, for diagnosis.
	object string
	// dur computes a data-dependent Compute duration at run time.
	dur func(*TaskCtx) sim.Time
	// attempt is the non-suspending half of a blocking operation: it either
	// completes the op (true) or enqueues the task as a waiter (false).
	attempt func(*TaskCtx) bool
	// wake completes a grant-on-resume op after the task runs again.
	wake func(*TaskCtx)
}

// Compute consumes d of processor time, exactly like TaskCtx.Execute: the
// task occupies the processor and may be preempted at any instant in
// between, with the remaining duration recomputed at the preemption instant.
func Compute(d sim.Time) Yield { return Yield{kind: yieldCompute, d: d} }

// ComputeFn is Compute with the duration computed at run time (data-dependent
// execution time). fn runs in kernel context and must not block.
func ComputeFn(fn func(*TaskCtx) sim.Time) Yield { return Yield{kind: yieldComputeFn, dur: fn} }

// WaitFor suspends the task for d without using the processor, exactly like
// TaskCtx.Delay. A zero duration is a no-op.
func WaitFor(d sim.Time) Yield { return Yield{kind: yieldSleep, d: d} }

// YieldCPU voluntarily releases the processor, exactly like TaskCtx.Yield:
// the task returns to the ready queue and the scheduler elects the next task
// (possibly this one again).
func YieldCPU() Yield { return Yield{kind: yieldYieldCPU} }

// Finish ends the current job: a periodic task completes its cycle and
// sleeps until the next release, a one-shot task terminates.
func Finish() Yield { return Yield{} }

// IsFinish reports whether the yield ends the job (the zero value).
func (y Yield) IsFinish() bool { return y.kind == yieldFinish }

// WaitOn blocks until the comm event occurs, exactly like e.Wait(ctx).
func WaitOn(e *comm.Event) Yield {
	return Yield{
		kind:    yieldAwait,
		object:  e.Name(),
		attempt: func(c *TaskCtx) bool { return e.WaitAttempt(c) },
		wake:    func(c *TaskCtx) { e.WaitWake(c) },
	}
}

// LockMutex acquires the comm mutex, exactly like m.Lock(ctx): the task
// blocks in the WaitingResource state while another actor owns the lock and
// re-attempts on each wake (another waiter may win the race). Release with an
// inline m.Unlock(ctx) — unlocking never blocks.
func LockMutex(m *comm.Mutex) Yield {
	return Yield{
		kind:     yieldAcquire,
		resource: true,
		object:   m.Name(),
		attempt:  func(c *TaskCtx) bool { return m.LockAttempt(c) },
	}
}

// PutMsg sends v into the comm message queue, exactly like q.Put(ctx, v):
// the task blocks while the queue is full.
func PutMsg[T any](q *comm.Queue[T], v T) Yield {
	return Yield{
		kind:    yieldAcquire,
		object:  q.Name(),
		attempt: func(c *TaskCtx) bool { return q.PutAttempt(c, v) },
	}
}

// GetMsg receives from the comm message queue, exactly like q.Get(ctx): the
// task blocks while the queue is empty. The received value is stored in
// *dst (pass nil to discard it).
func GetMsg[T any](q *comm.Queue[T], dst *T) Yield {
	return Yield{
		kind:   yieldAcquire,
		object: q.Name(),
		attempt: func(c *TaskCtx) bool {
			v, ok := q.GetAttempt(c)
			if ok && dst != nil {
				*dst = v
			}
			return ok
		},
	}
}
