package rtos

import (
	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AperiodicJob is one unit of aperiodic work submitted to a server.
type AperiodicJob struct {
	// Work is the processor time the job needs.
	Work sim.Time
	// Done, if non-nil, runs (in the server task's context) when the job
	// completes; typical uses are stopping a latency constraint or waking
	// another relation.
	Done func()

	submitted sim.Time
}

// Server is an aperiodic server: a schedulable entity that donates a
// budgeted share of the processor to aperiodic requests while periodic
// tasks keep their guarantees (Buttazzo, ch. 5 — the paper's reference
// [10]). Two classical disciplines are provided:
//
//   - NewPollingServer: the server runs as a periodic task; at each period
//     it serves queued jobs up to its budget, then sleeps until the next
//     period. A job arriving just after a poll waits up to a full period.
//   - NewDeferrableServer: the server preserves its remaining budget across
//     the period and serves jobs the moment they arrive (bandwidth
//     preservation), replenishing the budget at every period boundary.
type Server struct {
	task *Task
	name string

	period sim.Time
	budget sim.Time

	pending  fifo.Queue[AperiodicJob]
	arrive   *sim.Event
	queueCap int

	served    uint64
	dropped   uint64
	totalWork sim.Time
}

// ServerConfig carries an aperiodic server's parameters.
type ServerConfig struct {
	// Priority is the server task's fixed priority.
	Priority int
	// Period is the replenishment period.
	Period sim.Time
	// Budget is the processor time available per period.
	Budget sim.Time
	// QueueCap bounds the pending-job queue; 0 means unbounded. Jobs
	// submitted beyond the bound are dropped (counted in Dropped).
	QueueCap int
}

func (cfg ServerConfig) check(kind string) {
	if cfg.Period <= 0 {
		panic("rtos: " + kind + " requires a positive period")
	}
	if cfg.Budget <= 0 || cfg.Budget > cfg.Period {
		panic("rtos: " + kind + " budget must be in (0, period]")
	}
}

// Submit queues an aperiodic job. Safe from any simulation context; never
// consumes the caller's time. It reports whether the job was accepted.
func (s *Server) Submit(job AperiodicJob) bool {
	if job.Work <= 0 {
		panic("rtos: aperiodic job needs positive work")
	}
	job.submitted = s.task.cpu.k.Now()
	if cap := s.queueCap; cap > 0 && s.pending.Len() >= cap {
		s.dropped++
		return false
	}
	s.pending.Push(job)
	s.task.cpu.rec.Access("submitter", s.name+".queue", trace.AccessSend)
	s.arrive.Notify()
	return true
}

// Served returns the number of completed jobs.
func (s *Server) Served() uint64 { return s.served }

// Dropped returns the number of jobs rejected by the queue bound.
func (s *Server) Dropped() uint64 { return s.dropped }

// Task returns the underlying server task.
func (s *Server) Task() *Task { return s.task }

// Pending returns the number of queued jobs.
func (s *Server) Pending() int { return s.pending.Len() }

// TotalWork returns the total processor time served to jobs.
func (s *Server) TotalWork() sim.Time { return s.totalWork }

// NewPollingServer creates a polling server on the processor.
func (cpu *Processor) NewPollingServer(name string, cfg ServerConfig) *Server {
	cfg.check("polling server")
	s := &Server{
		name:     name,
		period:   cfg.Period,
		budget:   cfg.Budget,
		arrive:   cpu.k.NewEvent(name + ".arrive"),
		queueCap: cfg.QueueCap,
	}
	s.task = cpu.NewPeriodicTask(name, TaskConfig{
		Priority: cfg.Priority,
		Period:   cfg.Period,
		Deadline: cfg.Period,
	}, func(c *TaskCtx, cycle int) {
		budget := s.budget
		for budget > 0 && s.pending.Len() > 0 {
			budget -= s.serveOne(c, budget)
		}
		// Budget unused or exhausted: the polling server idles until the
		// next period either way.
	})
	return s
}

// NewDeferrableServer creates a deferrable server on the processor. The
// budget is anchored to period boundaries: at every k*Period the full
// budget returns, and consumption is accounted against the period the
// serving actually happens in (a serving slice never spans a boundary), so
// replenishment is exact even when jobs straddle boundaries.
func (cpu *Processor) NewDeferrableServer(name string, cfg ServerConfig) *Server {
	cfg.check("deferrable server")
	s := &Server{
		name:     name,
		period:   cfg.Period,
		budget:   cfg.Budget,
		queueCap: cfg.QueueCap,
	}
	s.arrive = cpu.k.NewEvent(name + ".arrive")

	// consumed tracks this period's consumption; periodIdx identifies the
	// period it belongs to. Both are read by the wake method and mutated by
	// the server task — safe, the kernel serializes everything.
	var consumed sim.Time
	var periodIdx sim.Time = -1
	available := func(now sim.Time) sim.Time {
		if now/cfg.Period != periodIdx {
			return cfg.Budget // a boundary passed: full budget again
		}
		return cfg.Budget - consumed
	}

	replenish := cpu.k.NewEvent(name + ".replenish")
	cpu.k.NewMethod(name+".refill", func() {
		replenish.NotifyAt((cpu.k.Now()/cfg.Period + 1) * cfg.Period)
		s.arrive.Notify() // wake the server if jobs were starved of budget
	}, false, replenish)
	replenish.NotifyAt(cfg.Period)

	s.task = cpu.NewTask(name, TaskConfig{Priority: cfg.Priority}, func(c *TaskCtx) {
		for {
			for s.pending.Empty() || available(c.Now()) <= 0 {
				c.Suspend(false, s.arrive.Name())
			}
			now := c.Now()
			if idx := now / cfg.Period; idx != periodIdx {
				periodIdx, consumed = idx, 0
			}
			// Slice within this period's remaining budget and window.
			limit := cfg.Budget - consumed
			if window := (periodIdx+1)*cfg.Period - now; window < limit {
				limit = window
			}
			if limit <= 0 {
				// At the very end of a period with no window left: wait for
				// the boundary.
				c.DelayUntil((periodIdx + 1) * cfg.Period)
				continue
			}
			consumed += s.serveOne(c, limit)
		}
	})
	// Wake the server task on arrivals/replenishments.
	cpu.k.NewMethod(name+".wake", func() {
		if s.pending.Len() > 0 && available(cpu.k.Now()) > 0 {
			cpu.taskIsReady(s.task)
		}
	}, false, s.arrive)
	return s
}

// NewSporadicServer creates a sporadic server on the processor: unlike the
// deferrable server, consumed budget is not restored wholesale at period
// boundaries — each consumed chunk is replenished exactly one period after
// the serving burst began, which removes the deferrable server's "double
// hit" and lets the server be analysed like a periodic task (C=budget,
// T=period).
func (cpu *Processor) NewSporadicServer(name string, cfg ServerConfig) *Server {
	cfg.check("sporadic server")
	s := &Server{
		name:     name,
		period:   cfg.Period,
		budget:   cfg.Budget,
		queueCap: cfg.QueueCap,
	}
	s.arrive = cpu.k.NewEvent(name + ".arrive")

	budget := cfg.Budget
	type refill struct {
		at     sim.Time
		amount sim.Time
	}
	var pendingRefills fifo.Queue[refill]
	refillEv := cpu.k.NewEvent(name + ".refill")
	cpu.k.NewMethod(name+".replenish", func() {
		now := cpu.k.Now()
		for pendingRefills.Len() > 0 && pendingRefills.Front().at <= now {
			budget += pendingRefills.Pop().amount
		}
		if budget > cfg.Budget {
			budget = cfg.Budget
		}
		if pendingRefills.Len() > 0 {
			refillEv.NotifyAt(pendingRefills.Front().at)
		}
		s.arrive.Notify()
	}, false, refillEv)

	s.task = cpu.NewTask(name, TaskConfig{Priority: cfg.Priority}, func(c *TaskCtx) {
		for {
			for s.pending.Empty() || budget <= 0 {
				c.Suspend(false, s.arrive.Name())
			}
			// One serving burst: the replenishment for everything consumed
			// in this burst lands one period after the burst starts.
			burstStart := c.Now()
			var consumed sim.Time
			for s.pending.Len() > 0 && budget > 0 {
				used := s.serveOne(c, budget)
				budget -= used
				consumed += used
			}
			if consumed > 0 {
				pendingRefills.Push(refill{at: burstStart + cfg.Period, amount: consumed})
				if pendingRefills.Len() == 1 {
					refillEv.NotifyAt(pendingRefills.Front().at)
				}
			}
		}
	})
	cpu.k.NewMethod(name+".wake", func() {
		if s.pending.Len() > 0 && budget > 0 {
			cpu.taskIsReady(s.task)
		}
	}, false, s.arrive)
	return s
}

// serveOne executes the head job for at most budget time and returns the
// time consumed. A job larger than the remaining budget stays at the head
// with its work reduced.
func (s *Server) serveOne(c *TaskCtx, budget sim.Time) sim.Time {
	job := s.pending.Front()
	slice := job.Work
	if slice > budget {
		slice = budget
	}
	c.Execute(slice)
	job.Work -= slice
	s.totalWork += slice
	if job.Work <= 0 {
		done := s.pending.Pop().Done
		s.served++
		if done != nil {
			done()
		}
	}
	return slice
}
