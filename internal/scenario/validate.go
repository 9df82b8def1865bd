package scenario

import "fmt"

// validate checks cross-references and enum values before elaboration so
// description errors surface as errors, not mid-simulation panics.
func (s *System) validate() error {
	switch s.TimedQueue {
	case "", "wheel", "heap":
	default:
		return fmt.Errorf("scenario: timedQueue must be \"wheel\" or \"heap\", not %q", s.TimedQueue)
	}
	cpus := map[string]bool{}
	cpuDefs := map[string]Processor{}
	for _, p := range s.Processors {
		if p.Name == "" {
			return fmt.Errorf("scenario: processor with empty name")
		}
		if cpus[p.Name] {
			return fmt.Errorf("scenario: duplicate processor %q", p.Name)
		}
		cpus[p.Name] = true
		cpuDefs[p.Name] = p
		switch p.Engine {
		case "", "procedural", "threaded":
		default:
			return fmt.Errorf("scenario: processor %q: unknown engine %q", p.Name, p.Engine)
		}
		if p.Speed < 0 {
			return fmt.Errorf("scenario: processor %q: speed must be positive", p.Name)
		}
		if p.Cores < 0 {
			return fmt.Errorf("scenario: processor %q: cores must be positive", p.Name)
		}
		switch p.Domain {
		case "", "partitioned", "global":
		default:
			return fmt.Errorf("scenario: processor %q: domain must be \"partitioned\" or \"global\"", p.Name)
		}
		switch p.Policy {
		case "", "priority", "fifo", "edf":
		case "rr":
			if p.Quantum <= 0 {
				return fmt.Errorf("scenario: processor %q: rr policy needs a positive quantum", p.Name)
			}
		default:
			return fmt.Errorf("scenario: processor %q: unknown policy %q", p.Name, p.Policy)
		}
	}

	events := map[string]bool{}
	for _, e := range s.Events {
		if events[e.Name] {
			return fmt.Errorf("scenario: duplicate event %q", e.Name)
		}
		events[e.Name] = true
		switch e.Policy {
		case "", "fugitive", "boolean", "counter":
		default:
			return fmt.Errorf("scenario: event %q: unknown policy %q", e.Name, e.Policy)
		}
	}
	queues := map[string]bool{}
	for _, q := range s.Queues {
		if queues[q.Name] {
			return fmt.Errorf("scenario: duplicate queue %q", q.Name)
		}
		queues[q.Name] = true
		if q.Capacity < 1 {
			return fmt.Errorf("scenario: queue %q: capacity must be at least 1", q.Name)
		}
	}
	shared := map[string]bool{}
	for _, v := range s.Shared {
		if shared[v.Name] {
			return fmt.Errorf("scenario: duplicate shared variable %q", v.Name)
		}
		shared[v.Name] = true
	}
	constraints := map[string]bool{}
	for _, c := range s.Constraints {
		if constraints[c.Name] {
			return fmt.Errorf("scenario: duplicate constraint %q", c.Name)
		}
		constraints[c.Name] = true
		if c.Limit <= 0 {
			return fmt.Errorf("scenario: constraint %q: limit must be positive", c.Name)
		}
	}

	buses := map[string]bool{}
	for _, b := range s.Buses {
		if buses[b.Name] {
			return fmt.Errorf("scenario: duplicate bus %q", b.Name)
		}
		buses[b.Name] = true
	}
	channels := map[string]bool{}
	for _, c := range s.Channels {
		if channels[c.Name] || queues[c.Name] {
			return fmt.Errorf("scenario: duplicate channel %q", c.Name)
		}
		channels[c.Name] = true
		if !buses[c.Bus] {
			return fmt.Errorf("scenario: channel %q: unknown bus %q", c.Name, c.Bus)
		}
		if c.Capacity < 1 {
			return fmt.Errorf("scenario: channel %q: capacity must be at least 1", c.Name)
		}
		if c.MessageBytes < 0 {
			return fmt.Errorf("scenario: channel %q: negative message size", c.Name)
		}
	}
	servers := map[string]bool{}
	traces := map[string]bool{}
	for name, tr := range s.Traces {
		if len(tr) == 0 {
			return fmt.Errorf("scenario: trace %q is empty", name)
		}
		for i, d := range tr {
			if d <= 0 {
				return fmt.Errorf("scenario: trace %q entry %d must be positive", name, i)
			}
		}
		traces[name] = true
	}
	irqs := map[string]bool{}
	// Watchdog names are collected up front so task and ISR bodies can kick
	// them; the rest of each definition is checked after the tasks are known.
	watchdogs := map[string]bool{}
	for _, w := range s.Watchdogs {
		if w.Name == "" {
			return fmt.Errorf("scenario: watchdog with empty name")
		}
		if watchdogs[w.Name] {
			return fmt.Errorf("scenario: duplicate watchdog %q", w.Name)
		}
		watchdogs[w.Name] = true
	}
	refs := refSets{
		events: events, queues: queues, shared: shared,
		constraints: constraints, irqs: irqs, channels: channels, servers: servers,
		traces: traces, watchdogs: watchdogs,
	}
	for _, srv := range s.Servers {
		if servers[srv.Name] {
			return fmt.Errorf("scenario: duplicate server %q", srv.Name)
		}
		servers[srv.Name] = true
		if !cpus[srv.Processor] {
			return fmt.Errorf("scenario: server %q: unknown processor %q", srv.Name, srv.Processor)
		}
		switch srv.Kind {
		case "polling", "deferrable", "sporadic":
		default:
			return fmt.Errorf("scenario: server %q: kind must be polling, deferrable or sporadic", srv.Name)
		}
		if srv.Period <= 0 || srv.Budget <= 0 || srv.Budget > srv.Period {
			return fmt.Errorf("scenario: server %q: budget must be in (0, period]", srv.Name)
		}
	}
	for _, q := range s.IRQs {
		if irqs[q.Name] {
			return fmt.Errorf("scenario: duplicate irq %q", q.Name)
		}
		irqs[q.Name] = true
		if !cpus[q.Processor] {
			return fmt.Errorf("scenario: irq %q: unknown processor %q", q.Name, q.Processor)
		}
		if len(q.Body) == 0 {
			return fmt.Errorf("scenario: irq %q has an empty body", q.Name)
		}
		if err := validateOps("irq:"+q.Name, q.Body, isrOps, refs); err != nil {
			return err
		}
	}

	names := map[string]bool{}
	taskCPU := map[string]string{}
	for _, t := range s.Tasks {
		if names[t.Name] {
			return fmt.Errorf("scenario: duplicate task %q", t.Name)
		}
		names[t.Name] = true
		if !cpus[t.Processor] {
			return fmt.Errorf("scenario: task %q: unknown processor %q", t.Name, t.Processor)
		}
		taskCPU[t.Name] = t.Processor
		if t.Affinity != 0 {
			cpu := cpuDefs[t.Processor]
			if t.Affinity < 0 || t.Affinity >= max(1, cpu.Cores) {
				return fmt.Errorf("scenario: task %q: affinity %d out of range for processor %q with %d core(s)",
					t.Name, t.Affinity, t.Processor, max(1, cpu.Cores))
			}
			if cpu.Domain == "global" {
				return fmt.Errorf("scenario: task %q: affinity requires the partitioned domain on processor %q",
					t.Name, t.Processor)
			}
		}
		if t.Loop && t.Period > 0 {
			return fmt.Errorf("scenario: task %q: loop and period are mutually exclusive", t.Name)
		}
		if t.Jitter > 0 && (t.Period == 0 || t.Jitter >= t.Period) {
			return fmt.Errorf("scenario: task %q: jitter requires a period larger than the jitter", t.Name)
		}
		switch t.OnMiss {
		case "", "continue":
		case "abort", "skip_next", "restart":
			if t.Period == 0 {
				return fmt.Errorf("scenario: task %q: onMiss %q requires a period", t.Name, t.OnMiss)
			}
		default:
			return fmt.Errorf("scenario: task %q: unknown onMiss policy %q", t.Name, t.OnMiss)
		}
		if len(t.Body) == 0 {
			return fmt.Errorf("scenario: task %q has an empty body", t.Name)
		}
		switch t.Engine {
		case "", "goroutine", "continuation":
		default:
			return fmt.Errorf("scenario: task %q: unknown engine %q (want \"goroutine\" or \"continuation\")",
				t.Name, t.Engine)
		}
		if err := validateOps(t.Name, t.Body, swOpsKind, refs); err != nil {
			return err
		}
	}
	for _, h := range s.Hardware {
		if names[h.Name] {
			return fmt.Errorf("scenario: duplicate task %q", h.Name)
		}
		names[h.Name] = true
		if len(h.Body) == 0 {
			return fmt.Errorf("scenario: hardware task %q has an empty body", h.Name)
		}
		if err := validateOps(h.Name, h.Body, hwOpsKind, refs); err != nil {
			return err
		}
	}
	if len(s.Tasks) == 0 && len(s.Hardware) == 0 {
		return fmt.Errorf("scenario: no tasks")
	}

	for _, w := range s.Watchdogs {
		if !cpus[w.Processor] {
			return fmt.Errorf("scenario: watchdog %q: unknown processor %q", w.Name, w.Processor)
		}
		if w.Timeout <= 0 {
			return fmt.Errorf("scenario: watchdog %q: timeout must be positive", w.Name)
		}
		if w.Task != "" {
			cpu, ok := taskCPU[w.Task]
			if !ok {
				return fmt.Errorf("scenario: watchdog %q: unknown task %q", w.Name, w.Task)
			}
			if cpu != w.Processor {
				return fmt.Errorf("scenario: watchdog %q: task %q runs on processor %q, not %q",
					w.Name, w.Task, cpu, w.Processor)
			}
		}
	}
	if err := s.validateFaults(taskCPU, irqs); err != nil {
		return err
	}
	if err := s.validateExplore(); err != nil {
		return err
	}
	return nil
}

// validateExplore checks the schedule-exploration block: bounds must be
// non-negative and the perturbed tasks must be periodic with jitter room.
func (s *System) validateExplore() error {
	e := s.Explore
	if e == nil {
		return nil
	}
	if e.MaxRuns < 0 || e.MaxDepth < 0 || e.JitterSteps < 0 || e.MaxBranch < 0 {
		return fmt.Errorf("scenario: explore: bounds must be non-negative")
	}
	if e.MaxInversion < 0 {
		return fmt.Errorf("scenario: explore: negative maxInversion")
	}
	taskDef := map[string]SWTask{}
	for _, t := range s.Tasks {
		taskDef[t.Name] = t
	}
	for name, bound := range e.Jitter {
		t, ok := taskDef[name]
		if !ok {
			return fmt.Errorf("scenario: explore: jitter for unknown task %q", name)
		}
		if bound <= 0 {
			return fmt.Errorf("scenario: explore: task %q: jitter bound must be positive", name)
		}
		if t.Period == 0 || bound >= t.Period {
			return fmt.Errorf("scenario: explore: task %q: jitter bound requires a period larger than the bound", name)
		}
	}
	for _, name := range e.ExpectedMiss {
		if _, ok := taskDef[name]; !ok {
			return fmt.Errorf("scenario: explore: expectedMiss names unknown task %q", name)
		}
	}
	return nil
}

// validateFaults mirrors the preconditions of the rtos fault injectors so a
// bad description is an error, not an elaboration panic.
func (s *System) validateFaults(taskCPU map[string]string, irqs map[string]bool) error {
	for i, f := range s.Faults {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("scenario: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		needTask := func() error {
			if taskCPU[f.Task] == "" {
				return fail("unknown task %q", f.Task)
			}
			return nil
		}
		if f.Probability < 0 || f.Probability > 1 {
			return fail("probability out of [0, 1]")
		}
		switch f.Kind {
		case "wcet_overrun":
			if err := needTask(); err != nil {
				return err
			}
			if f.Factor != 0 && f.Factor < 1 {
				return fail("factor must be at least 1")
			}
			if f.Extra < 0 {
				return fail("negative extra")
			}
			if (f.Factor == 0 || f.Factor == 1) && f.Extra == 0 {
				return fail("no effect: needs factor > 1 and/or a positive extra")
			}
			if f.After < 0 || f.Until < 0 || (f.Until > 0 && f.Until <= f.After) {
				return fail("active window [after, until) is empty")
			}
		case "crash":
			if err := needTask(); err != nil {
				return err
			}
			if f.At < 0 {
				return fail("negative injection time")
			}
		case "hang":
			if err := needTask(); err != nil {
				return err
			}
			if f.At < 0 || f.For < 0 {
				return fail("negative time")
			}
		case "irq_drop":
			if !irqs[f.IRQ] {
				return fail("unknown irq %q", f.IRQ)
			}
		case "irq_latency":
			if !irqs[f.IRQ] {
				return fail("unknown irq %q", f.IRQ)
			}
			if f.Extra <= 0 {
				return fail("needs a positive extra latency")
			}
		default:
			return fail("unknown fault kind")
		}
	}
	return nil
}

type refSets struct {
	events, queues, shared, constraints, irqs, channels, servers, traces, watchdogs map[string]bool
}

// opsKind selects the operation whitelist for a body.
type opsKind uint8

const (
	swOpsKind opsKind = iota // software tasks: everything
	hwOpsKind                // hardware tasks: no execute, no RTOS calls
	isrOps                   // interrupt service routines: non-blocking only
)

func validateOps(task string, ops []Op, kind opsKind, refs refSets) error {
	for i, op := range ops {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("scenario: task %q op %d (%s): %s", task, i, op.Op, fmt.Sprintf(format, args...))
		}
		switch op.Op {
		case "execute":
			if kind == hwOpsKind {
				return fail("hardware tasks use delay, not execute")
			}
			if op.For <= 0 {
				return fail("needs a positive 'for' duration")
			}
		case "execute_trace":
			if kind == hwOpsKind {
				return fail("hardware tasks use delay, not execute_trace")
			}
			if !refs.traces[op.Trace] {
				return fail("unknown trace %q", op.Trace)
			}
		case "delay":
			if kind == isrOps {
				return fail("ISRs consume time with execute, not delay")
			}
			if op.For <= 0 {
				return fail("needs a positive 'for' duration")
			}
		case "wait":
			if kind == isrOps {
				return fail("ISRs must not block")
			}
			if !refs.events[op.Event] {
				return fail("unknown event %q", op.Event)
			}
		case "signal":
			if !refs.events[op.Event] {
				return fail("unknown event %q", op.Event)
			}
		case "put", "get":
			if kind == isrOps {
				return fail("ISRs must not block; use tryput")
			}
			if !refs.queues[op.Queue] {
				return fail("unknown queue %q", op.Queue)
			}
		case "tryput":
			if !refs.queues[op.Queue] {
				return fail("unknown queue %q", op.Queue)
			}
		case "lock", "unlock", "read", "write":
			if kind == isrOps {
				return fail("ISRs must not block on shared variables")
			}
			if !refs.shared[op.Shared] {
				return fail("unknown shared variable %q", op.Shared)
			}
		case "nopreempt_begin", "nopreempt_end", "setprio", "yield":
			if kind != swOpsKind {
				return fail("only available on software tasks")
			}
		case "lat_start", "lat_stop":
			if !refs.constraints[op.Constraint] {
				return fail("unknown constraint %q", op.Constraint)
			}
		case "kick":
			if kind == hwOpsKind {
				return fail("watchdogs are kicked from software tasks or ISRs")
			}
			if !refs.watchdogs[op.Watchdog] {
				return fail("unknown watchdog %q", op.Watchdog)
			}
		case "raise":
			if kind == isrOps {
				return fail("ISRs cannot raise interrupts in this model")
			}
			if !refs.irqs[op.IRQ] {
				return fail("unknown irq %q", op.IRQ)
			}
		case "send", "recv":
			if kind == isrOps {
				return fail("ISRs must not block on bus channels")
			}
			if !refs.channels[op.Channel] {
				return fail("unknown channel %q", op.Channel)
			}
		case "submit":
			if !refs.servers[op.Server] {
				return fail("unknown server %q", op.Server)
			}
			if op.For <= 0 {
				return fail("needs a positive 'for' work duration")
			}
			if op.Constraint != "" && !refs.constraints[op.Constraint] {
				return fail("unknown constraint %q", op.Constraint)
			}
		case "repeat":
			if op.Count < 1 {
				return fail("needs a count of at least 1")
			}
			if len(op.Body) == 0 {
				return fail("needs a non-empty body")
			}
			if err := validateOps(task, op.Body, kind, refs); err != nil {
				return err
			}
		default:
			return fail("unknown operation")
		}
	}
	return nil
}
