package comm

import (
	"fmt"

	"repro/internal/trace"
)

// Queue is an MCSE message-passing relation: a bounded FIFO implementing a
// producer/consumer pattern ("Message queue: it implements a
// producer/consumer type of relation. Its message capacity is a parameter",
// paper section 2). Put blocks while the queue is full, Get blocks while it
// is empty. Both sides may have several actors.
type Queue[T any] struct {
	rec      *trace.Recorder
	name     string
	capacity int

	buf       []T
	producers waitQueue
	consumers waitQueue

	sends, receives uint64
}

// NewQueue creates a message queue with the given capacity (at least 1).
// rec may be nil to disable tracing.
func NewQueue[T any](rec *trace.Recorder, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("comm: queue %q capacity must be at least 1", name))
	}
	q := &Queue[T]{rec: rec, name: name, capacity: capacity}
	q.recordDepth()
	return q
}

// Name returns the queue's name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the queue's message capacity.
func (q *Queue[T]) Cap() int { return q.capacity }

// Len returns the current number of queued messages.
func (q *Queue[T]) Len() int { return len(q.buf) }

// Sends returns the total number of completed Put operations.
func (q *Queue[T]) Sends() uint64 { return q.sends }

// Receives returns the total number of completed Get operations.
func (q *Queue[T]) Receives() uint64 { return q.receives }

// Put enqueues v on behalf of actor a, blocking while the queue is full.
func (q *Queue[T]) Put(a Actor, v T) {
	for !q.PutAttempt(a, v) {
		a.Suspend(false, q.name)
	}
}

// PutAttempt is the non-suspending half of Put, for callers that cannot
// suspend in place (a Program body's yield op). With room it completes the
// send and returns true; with the queue full it records the block, enqueues
// a as a producer and returns false. After a false return the actor is resumed when
// room may be available and must re-attempt — a wake is a hint, not a grant,
// exactly as Put's retry loop treats it.
func (q *Queue[T]) PutAttempt(a Actor, v T) bool {
	name := a.Name()
	if len(q.buf) >= q.capacity {
		q.rec.Access(name, q.name, trace.AccessBlocked)
		q.producers.push(a)
		return false
	}
	q.buf = append(q.buf, v)
	q.sends++
	q.rec.Access(name, q.name, trace.AccessSend)
	q.recordDepth()
	if !q.consumers.empty() {
		q.consumers.popFIFO().Resume()
	}
	return true
}

// TryPut enqueues v without blocking; it reports whether there was room.
func (q *Queue[T]) TryPut(a Actor, v T) bool {
	if len(q.buf) >= q.capacity {
		return false
	}
	q.Put(a, v)
	return true
}

// Get dequeues the oldest message on behalf of actor a, blocking while the
// queue is empty.
func (q *Queue[T]) Get(a Actor) T {
	for {
		if v, ok := q.GetAttempt(a); ok {
			return v
		}
		a.Suspend(false, q.name)
	}
}

// GetAttempt is the non-suspending half of Get (see PutAttempt): it either
// completes the receive (ok true) or records the block and enqueues a as a
// consumer (ok false, re-attempt after being resumed).
func (q *Queue[T]) GetAttempt(a Actor) (v T, ok bool) {
	name := a.Name()
	if len(q.buf) == 0 {
		q.rec.Access(name, q.name, trace.AccessBlocked)
		q.consumers.push(a)
		return v, false
	}
	v = q.buf[0]
	q.buf = q.buf[1:]
	q.receives++
	q.rec.Access(name, q.name, trace.AccessReceive)
	q.recordDepth()
	if !q.producers.empty() {
		q.producers.popFIFO().Resume()
	}
	return v, true
}

// TryGet dequeues without blocking; ok reports whether a message was there.
func (q *Queue[T]) TryGet(a Actor) (v T, ok bool) {
	if len(q.buf) == 0 {
		return v, false
	}
	return q.Get(a), true
}

func (q *Queue[T]) recordDepth() {
	q.rec.Depth(q.name, len(q.buf), q.capacity)
}
