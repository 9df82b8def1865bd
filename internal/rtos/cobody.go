package rtos

import (
	"fmt"
	"iter"
)

// coBody runs an ordinary Go task body as a Continuation. The body executes
// on an iter.Pull coroutine, created at the task's first dispatch and kept
// for the task's lifetime: the blocking TaskCtx primitives yield their op to
// the driver (TaskCtx.await), and the driver resumes the coroutine when the
// op completes, exactly as it resumes a Program. Each job (a periodic cycle,
// or the one-shot body) runs inside the coroutine's job loop; between jobs
// the coroutine rests at a Finish yield.
type coBody struct {
	t *Task
	// body is a periodic task's cycle body; once a one-shot task's body.
	body func(*TaskCtx, int)
	once func(*TaskCtx)

	next  func() (Yield, bool)
	stop  func()
	yield func(Yield) bool

	// running is true while the coroutine executes, the only time the
	// body's blocking primitives may yield.
	running bool
	// inJob is true while a job body is in flight (started, not returned).
	inJob bool
	// aborting tells the body, on its next resume, to unwind its job.
	aborting bool
	// closing marks a coroutine being stopped: the body unwinds, and what
	// its deferred calls do on the way out (block, panic) is discarded, as
	// Kernel.Shutdown discards it for a dying process.
	closing bool
}

// coStop unwinds a body coroutine that is being closed (task termination,
// kernel shutdown); recovered at the coroutine's top.
type coStop struct{}

// Reset is a no-op: the coroutine's job loop starts each job itself, and an
// aborted job is unwound by abortJob before the driver moves on.
func (b *coBody) Reset() {}

// Resume runs the body until it yields its next op or finishes the job.
func (b *coBody) Resume(*TaskCtx) Yield {
	if b.next == nil {
		b.next, b.stop = iter.Pull(b.run)
	}
	b.running = true
	y, ok := b.next()
	b.running = false
	if !ok {
		return Finish()
	}
	return y
}

// run is the coroutine: one job per resume after a Finish, forever, until
// the driver closes it.
func (b *coBody) run(yield func(Yield) bool) {
	b.yield = yield
	defer func() {
		if r := recover(); r != nil && !b.closing {
			panic(r)
		}
	}()
	for yield(b.job()) {
	}
}

// job runs one job of the body. A requested abort unwinds the body to here
// (running its deferred calls at the abort instant) and ends the job.
func (b *coBody) job() Yield {
	b.inJob = true
	defer func() {
		b.inJob = false
		if r := recover(); r != nil {
			if _, ok := r.(jobAborted); !ok {
				panic(r)
			}
		}
	}()
	if b.once != nil {
		b.once(&b.t.ctx)
	} else {
		b.body(&b.t.ctx, b.t.drv.cycle)
	}
	return Finish()
}

// abortJob unwinds the job the body is suspended in, if any: the driver
// lands an abort at a checkpoint and the body's deferred calls run now,
// before the recovery is recorded, as a panic unwinding a thread would.
func (b *coBody) abortJob() {
	if !b.inJob {
		return
	}
	b.aborting = true
	b.running = true
	y, _ := b.next()
	b.running = false
	if !y.IsFinish() {
		panic(fmt.Sprintf("rtos: task %q blocked while its aborted job unwound", b.t.name))
	}
}

// close ends the coroutine, if one was started (the task terminated, or the
// kernel shut down); closing twice is harmless.
func (b *coBody) close() {
	if b.stop != nil {
		b.closing = true
		b.stop()
	}
}
