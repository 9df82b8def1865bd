package scenario

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Built is an elaborated scenario: the runnable system plus name-indexed
// handles to every model object, for inspection after the run.
type Built struct {
	Desc *System
	Sys  *rtos.System

	Processors  map[string]*rtos.Processor
	Events      map[string]*comm.Event
	Queues      map[string]*comm.Queue[int]
	Shared      map[string]*comm.Shared[int]
	Constraints map[string]*rtos.Constraint
	IRQs        map[string]*rtos.IRQ
	Buses       map[string]*bus.Bus
	Channels    map[string]*bus.Channel[int]
	Servers     map[string]*rtos.Server
	Tasks       map[string]*rtos.Task
	Watchdogs   map[string]*rtos.Watchdog

	// traceCursors tracks each named duration trace's position; a trace has
	// one global cursor shared by all its execute_trace sites, advancing
	// deterministically with the simulation.
	traceCursors map[string]int

	// xsend/xrecv hold the cross-shard halves of channels cut by a shard
	// filter: xsend maps a channel whose senders are local (receivers
	// remote) to its split-phase publish function, xrecv maps a channel
	// whose receivers are local (senders remote) to the bare delivery
	// queue the parallel engine's injector feeds. Nil for full builds.
	xsend map[string]func(comm.Actor, int)
	xrecv map[string]*comm.Queue[int]
}

// CrossHooks connects a shard build to the parallel engine. The build calls
// Inbound once per inbound cross-shard channel during elaboration; the
// sender-side split-phase transfer calls FloorHold, then occupies the local
// bus for the usual transfer time, then Publish at the instant the message
// would have been deposited, then FloorRelease. The floor brackets let the
// engine bound its outbound promises by in-flight transfers.
type CrossHooks struct {
	// Publish hands a sent value to the engine; the message surfaces on the
	// receiving shard timestamped with the sending kernel's current time.
	Publish func(channel, sender string, value int)
	// FloorHold announces an in-flight send that will publish no earlier
	// than `earliest`; it returns a token for FloorRelease.
	FloorHold func(channel string, earliest sim.Time) int
	// FloorRelease retires a FloorHold token once its message is published.
	FloorRelease func(channel string, id int)
	// Inbound registers the local delivery queue of an inbound channel.
	Inbound func(channel string, q *comm.Queue[int])
}

// shardFilter restricts elaboration to one shard of a partition plan.
type shardFilter struct {
	procs, hardware                                                      map[string]bool
	events, queues, shared, constraints, servers, irqs, watchdogs, buses map[string]bool
	chanLocal, chanOut, chanIn                                           map[string]bool
	hooks                                                                *CrossHooks
}

// Build elaborates the description into a simulation-ready system.
func (s *System) Build() (*Built, error) { return s.build(nil) }

// BuildShard elaborates exactly one shard of a partition plan: the shard's
// processors, hardware tasks and the objects the plan assigns to it. Cross-
// shard channels elaborate as half-objects wired to the hooks. A plan with a
// single group builds the full system (hooks unused), which is what makes
// the partition-of-one configuration byte-identical to the sequential
// engine: it runs the very same elaboration.
func (s *System) BuildShard(plan *ShardPlan, shard int, hooks *CrossHooks) (*Built, error) {
	if len(plan.Groups) == 1 {
		return s.build(nil)
	}
	f := &shardFilter{
		procs:       map[string]bool{},
		hardware:    map[string]bool{},
		events:      map[string]bool{},
		queues:      map[string]bool{},
		shared:      map[string]bool{},
		constraints: map[string]bool{},
		servers:     map[string]bool{},
		irqs:        map[string]bool{},
		watchdogs:   map[string]bool{},
		buses:       map[string]bool{},
		chanLocal:   map[string]bool{},
		chanOut:     map[string]bool{},
		chanIn:      map[string]bool{},
		hooks:       hooks,
	}
	for _, name := range plan.Groups[shard].Processors {
		f.procs[name] = true
	}
	for _, name := range plan.Groups[shard].Hardware {
		f.hardware[name] = true
	}
	keep := func(dst map[string]bool, owners map[string]int) {
		for name, g := range owners {
			if g == shard {
				dst[name] = true
			}
		}
	}
	keep(f.events, plan.Events)
	keep(f.queues, plan.Queues)
	keep(f.shared, plan.Shared)
	keep(f.constraints, plan.Constraints)
	keep(f.servers, plan.Servers)
	keep(f.irqs, plan.IRQs)
	keep(f.watchdogs, plan.Watchdogs)
	keep(f.buses, plan.Buses)
	for name, route := range plan.Channels {
		switch {
		case route.From == shard && route.To == shard:
			f.chanLocal[name] = true
		case route.From == shard:
			f.chanOut[name] = true
		case route.To == shard:
			f.chanIn[name] = true
		}
	}
	return s.build(f)
}

func (s *System) build(f *shardFilter) (*Built, error) {
	b := &Built{
		Desc:         s,
		Sys:          rtos.NewSystem(),
		Processors:   map[string]*rtos.Processor{},
		Events:       map[string]*comm.Event{},
		Queues:       map[string]*comm.Queue[int]{},
		Shared:       map[string]*comm.Shared[int]{},
		Constraints:  map[string]*rtos.Constraint{},
		IRQs:         map[string]*rtos.IRQ{},
		Buses:        map[string]*bus.Bus{},
		Channels:     map[string]*bus.Channel[int]{},
		Servers:      map[string]*rtos.Server{},
		Tasks:        map[string]*rtos.Task{},
		Watchdogs:    map[string]*rtos.Watchdog{},
		traceCursors: map[string]int{},
	}
	b.Sys.Rec.SetStore(!s.StatsOnly)
	if f != nil {
		b.xsend = map[string]func(comm.Actor, int){}
		b.xrecv = map[string]*comm.Queue[int]{}
	}
	for _, p := range s.Processors {
		if f != nil && !f.procs[p.Name] {
			continue
		}
		cfg := rtos.Config{NonPreemptive: p.NonPreemptive, Speed: p.Speed, Cores: p.Cores}
		if p.Engine == "threaded" {
			cfg.Engine = rtos.EngineThreaded
		}
		if p.Domain == "global" {
			cfg.Domain = rtos.DomainGlobal
		}
		switch p.Policy {
		case "", "priority":
			cfg.Policy = rtos.PriorityPreemptive{}
		case "fifo":
			cfg.Policy = rtos.FIFO{}
		case "rr":
			cfg.Policy = rtos.RoundRobin{Slice: p.Quantum.Time()}
		case "edf":
			cfg.Policy = rtos.EDF{}
		}
		ov := rtos.Overheads{
			ContextSave: rtos.Fixed(p.Overheads.ContextSave.Time()),
			ContextLoad: rtos.Fixed(p.Overheads.ContextLoad.Time()),
		}
		if p.Overheads.SchedulingPerReady > 0 {
			ov.Scheduling = rtos.PerReadyTask(p.Overheads.Scheduling.Time(), p.Overheads.SchedulingPerReady.Time())
		} else {
			ov.Scheduling = rtos.Fixed(p.Overheads.Scheduling.Time())
		}
		cfg.Overheads = ov
		b.Processors[p.Name] = b.Sys.NewProcessor(p.Name, cfg)
	}
	for _, e := range s.Events {
		if f != nil && !f.events[e.Name] {
			continue
		}
		pol := comm.Fugitive
		switch e.Policy {
		case "boolean":
			pol = comm.Boolean
		case "counter":
			pol = comm.Counter
		}
		b.Events[e.Name] = comm.NewEvent(b.Sys.Rec, e.Name, pol)
	}
	for _, q := range s.Queues {
		if f != nil && !f.queues[q.Name] {
			continue
		}
		b.Queues[q.Name] = comm.NewQueue[int](b.Sys.Rec, q.Name, q.Capacity)
	}
	for _, v := range s.Shared {
		if f != nil && !f.shared[v.Name] {
			continue
		}
		if v.Inherit {
			b.Shared[v.Name] = comm.NewInheritShared(b.Sys.Rec, v.Name, v.Initial)
		} else {
			b.Shared[v.Name] = comm.NewShared(b.Sys.Rec, v.Name, v.Initial)
		}
	}
	for _, c := range s.Constraints {
		if f != nil && !f.constraints[c.Name] {
			continue
		}
		b.Constraints[c.Name] = b.Sys.Constraints.NewLatency(c.Name, c.Limit.Time())
	}

	for _, def := range s.Buses {
		if f != nil && !f.buses[def.Name] {
			continue
		}
		b.Buses[def.Name] = bus.New(b.Sys.Rec, def.Name, bus.Config{
			PerByte:     def.PerByte.Time(),
			Arbitration: def.Arbitration.Time(),
		})
	}
	for _, def := range s.Channels {
		size := def.MessageBytes
		if size == 0 {
			size = 1
		}
		switch {
		case f != nil && f.chanLocal[def.Name] && b.Buses[def.Bus] == nil:
			// A senderless channel routes to its receivers' shard while its
			// (never contended) bus elaborated elsewhere. A bare queue models
			// it exactly: receivers block, nothing ever sends.
			b.xrecv[def.Name] = comm.NewQueue[int](b.Sys.Rec, def.Name, def.Capacity)
		case f == nil || f.chanLocal[def.Name]:
			b.Channels[def.Name] = bus.NewChannel(b.Buses[def.Bus], def.Name, def.Capacity,
				func(int) int { return size })
		case f.chanOut[def.Name]:
			// Sender half of a cross-shard channel: the local bus charges its
			// usual contention and transfer time, then the value leaves the
			// shard as a timestamped message instead of entering a queue. The
			// floor bracket keeps the engine's outbound promise below the
			// publish instant while the transfer is in flight.
			name, theBus, hooks := def.Name, b.Buses[def.Bus], f.hooks
			b.xsend[name] = func(a comm.Actor, v int) {
				id := hooks.FloorHold(name, addTimeSat(b.Sys.Now(), theBus.TransferTime(size)))
				theBus.Transfer(a, size)
				hooks.Publish(name, a.Name(), v)
				hooks.FloorRelease(name, id)
			}
		case f.chanIn[def.Name]:
			// Receiver half: a bare delivery queue fed by the engine's
			// injector. Receivers block on it exactly as on a local channel.
			q := comm.NewQueue[int](b.Sys.Rec, def.Name, def.Capacity)
			b.xrecv[def.Name] = q
			f.hooks.Inbound(def.Name, q)
		}
	}
	for _, def := range s.Servers {
		if f != nil && !f.servers[def.Name] {
			continue
		}
		cfg := rtos.ServerConfig{
			Priority: def.Priority,
			Period:   def.Period.Time(),
			Budget:   def.Budget.Time(),
			QueueCap: def.QueueCap,
		}
		cpu := b.Processors[def.Processor]
		switch def.Kind {
		case "deferrable":
			b.Servers[def.Name] = cpu.NewDeferrableServer(def.Name, cfg)
		case "sporadic":
			b.Servers[def.Name] = cpu.NewSporadicServer(def.Name, cfg)
		default:
			b.Servers[def.Name] = cpu.NewPollingServer(def.Name, cfg)
		}
	}
	for _, q := range s.IRQs {
		if f != nil && !f.irqs[q.Name] {
			continue
		}
		q := q
		ctrl := b.Processors[q.Processor].Interrupts()
		b.IRQs[q.Name] = ctrl.NewIRQ(q.Name, q.Priority, q.Latency.Time(), func(c *rtos.ISRCtx) {
			b.runOps(isrActor(c), q.Body)
		})
	}

	for _, t := range s.Tasks {
		if f != nil && !f.procs[t.Processor] {
			continue
		}
		t := t
		cpu := b.Processors[t.Processor]
		cfg := rtos.TaskConfig{
			Priority: t.Priority,
			Affinity: t.Affinity,
			StartAt:  t.StartAt.Time(),
			Period:   t.Period.Time(),
			Deadline: t.Deadline.Time(),
			Jitter:   t.Jitter.Time(),
		}
		switch t.OnMiss {
		case "abort":
			cfg.OnMiss = rtos.MissAbortJob
		case "skip_next":
			cfg.OnMiss = rtos.MissSkipNextRelease
		case "restart":
			cfg.OnMiss = rtos.MissRestartTask
		}
		// The engine field selects nothing: the body's ops decide its form.
		if !t.Loop && plainOps(t.Body) {
			pb := rtos.BuildProgram()
			if t.Period > 0 {
				compileOps(pb, t.Body)
				b.Tasks[t.Name] = cpu.NewPeriodicContTask(t.Name, cfg, pb.Build())
				continue
			}
			pb.Loop(max(1, t.Repeat))
			compileOps(pb, t.Body)
			pb.End()
			b.Tasks[t.Name] = cpu.NewContTask(t.Name, cfg, pb.Build())
			continue
		}
		// Every other body runs through the behaviour interpreter, on the
		// task's body coroutine.
		if t.Period > 0 {
			var ops opActor
			b.Tasks[t.Name] = cpu.NewPeriodicTask(t.Name, cfg, func(c *rtos.TaskCtx, cycle int) {
				if ops.actor == nil {
					ops = swOps(c)
				}
				b.runOps(ops, t.Body)
			})
			continue
		}
		b.Tasks[t.Name] = cpu.NewTask(t.Name, cfg, func(c *rtos.TaskCtx) {
			ops := swOps(c)
			if t.Loop {
				for {
					b.runOps(ops, t.Body)
				}
			}
			for i := 0; i < max(1, t.Repeat); i++ {
				b.runOps(ops, t.Body)
			}
		})
	}
	for _, h := range s.Hardware {
		if f != nil && !f.hardware[h.Name] {
			continue
		}
		h := h
		b.Sys.NewHWTask(h.Name, rtos.HWConfig{Priority: h.Priority, StartAt: h.StartAt.Time()}, func(c *rtos.HWCtx) {
			ops := hwOps(c)
			if h.Loop {
				for {
					b.runOps(ops, h.Body)
				}
			}
			for i := 0; i < max(1, h.Repeat); i++ {
				b.runOps(ops, h.Body)
			}
		})
	}

	for _, w := range s.Watchdogs {
		if f != nil && !f.watchdogs[w.Name] {
			continue
		}
		b.Watchdogs[w.Name] = b.Processors[w.Processor].NewWatchdog(
			w.Name, w.Timeout.Time(), b.Tasks[w.Task]) // Task "" maps to nil
	}
	for _, fd := range s.Faults {
		// Faults follow their target: a shard build skips injections whose
		// task or IRQ lives elsewhere.
		switch fd.Kind {
		case "wcet_overrun", "crash", "hang":
			if f != nil && b.Tasks[fd.Task] == nil {
				continue
			}
		default:
			if f != nil && b.IRQs[fd.IRQ] == nil {
				continue
			}
		}
		switch fd.Kind {
		case "wcet_overrun":
			b.Tasks[fd.Task].InjectWCETOverrun(rtos.WCETOverrun{
				Factor:      fd.Factor,
				Extra:       fd.Extra.Time(),
				Probability: fd.Probability,
				Seed:        fd.Seed,
				After:       fd.After.Time(),
				Until:       fd.Until.Time(),
			})
		case "crash":
			b.Tasks[fd.Task].InjectCrashAt(fd.At.Time())
		case "hang":
			b.Tasks[fd.Task].InjectHangAt(fd.At.Time(), fd.For.Time())
		case "irq_drop":
			b.IRQs[fd.IRQ].InjectDrop(fd.Probability, fd.Seed)
		case "irq_latency":
			b.IRQs[fd.IRQ].InjectLatencySpike(fd.Extra.Time(), fd.Probability, fd.Seed)
		}
	}
	return b, nil
}

// addTimeSat adds two times, saturating at sim.TimeMax.
func addTimeSat(a, b sim.Time) sim.Time {
	if c := a + b; c >= a {
		return c
	}
	return sim.TimeMax
}

// Run simulates the built scenario to its horizon (or to event starvation)
// and shuts the kernel down.
func (b *Built) Run() {
	if h := b.Desc.Horizon.Time(); h > 0 {
		b.Sys.RunUntil(h)
		b.Sys.Shutdown()
		return
	}
	b.Sys.Run()
}

// RunChecked simulates the built scenario to its horizon (or to event
// starvation) with failure diagnosis: model panics, deadlock and starvation
// come back as a structured *sim.SimError instead of a panic or a silent
// stop. On a clean finish the kernel is shut down and the report returned.
func (b *Built) RunChecked() (sim.Report, error) {
	limit := sim.TimeMax
	if h := b.Desc.Horizon.Time(); h > 0 {
		limit = h
	}
	rep, err := b.Sys.RunChecked(limit)
	if err == nil {
		b.Sys.Shutdown()
	}
	return rep, err
}

// opActor abstracts the software/hardware task APIs for the interpreter.
type opActor struct {
	actor     comm.Actor
	execute   func(sim.Time)
	delay     func(sim.Time)
	noPreempt func(bool)
	setPrio   func(int)
	yield     func()
}

func swOps(c *rtos.TaskCtx) opActor {
	return opActor{
		actor:   c,
		execute: c.Execute,
		delay:   c.Delay,
		noPreempt: func(on bool) {
			if on {
				c.DisablePreemption()
			} else {
				c.EnablePreemption()
			}
		},
		setPrio: c.SetPriority,
		yield:   c.Yield,
	}
}

func hwOps(c *rtos.HWCtx) opActor {
	return opActor{actor: c, delay: c.Wait}
}

func isrActor(c *rtos.ISRCtx) opActor {
	return opActor{actor: c, execute: c.Execute}
}

// runOps interprets a behaviour script. Validation guarantees the ops are
// well-formed for the actor kind.
func (b *Built) runOps(a opActor, ops []Op) {
	for _, op := range ops {
		switch op.Op {
		case "execute":
			a.execute(op.For.Time())
		case "execute_trace":
			tr := b.Desc.Traces[op.Trace]
			i := b.traceCursors[op.Trace]
			b.traceCursors[op.Trace] = (i + 1) % len(tr)
			a.execute(tr[i].Time())
		case "delay":
			a.delay(op.For.Time())
		case "wait":
			b.Events[op.Event].Wait(a.actor)
		case "signal":
			b.Events[op.Event].Signal(a.actor)
		case "put":
			b.Queues[op.Queue].Put(a.actor, op.Value)
		case "tryput":
			b.Queues[op.Queue].TryPut(a.actor, op.Value)
		case "get":
			b.Queues[op.Queue].Get(a.actor)
		case "raise":
			b.IRQs[op.IRQ].Raise()
		case "send":
			if ch := b.Channels[op.Channel]; ch != nil {
				ch.Send(a.actor, op.Value)
			} else {
				// Sender half of a cross-shard channel (see BuildShard).
				b.xsend[op.Channel](a.actor, op.Value)
			}
		case "recv":
			if ch := b.Channels[op.Channel]; ch != nil {
				ch.Recv(a.actor)
			} else {
				// Receiver half: block on the injector-fed delivery queue.
				b.xrecv[op.Channel].Get(a.actor)
			}
		case "submit":
			job := rtos.AperiodicJob{Work: op.For.Time()}
			if op.Constraint != "" {
				mon := b.Constraints[op.Constraint]
				job.Done = mon.Stop
			}
			b.Servers[op.Server].Submit(job)
		case "lock":
			b.Shared[op.Shared].Lock(a.actor)
		case "unlock":
			b.Shared[op.Shared].Unlock(a.actor)
		case "read":
			b.Shared[op.Shared].Read(a.actor)
		case "write":
			b.Shared[op.Shared].Write(a.actor, op.Value)
		case "nopreempt_begin":
			a.noPreempt(true)
		case "nopreempt_end":
			a.noPreempt(false)
		case "setprio":
			a.setPrio(op.Value)
		case "yield":
			a.yield()
		case "lat_start":
			b.Constraints[op.Constraint].Start()
		case "lat_stop":
			b.Constraints[op.Constraint].Stop()
		case "kick":
			b.Watchdogs[op.Watchdog].Kick()
		case "repeat":
			for i := 0; i < op.Count; i++ {
				b.runOps(a, op.Body)
			}
		default:
			panic(fmt.Sprintf("scenario: unvalidated op %q", op.Op))
		}
	}
}

// plainOps reports whether a body is made only of the ops that touch
// nothing but the task itself — execute, delay, yield, the preemption
// toggles, setprio — and repeats of them. Such a body has a Program form:
// the task runs it without a coroutine, and, like every Program task, it
// starts before the tasks whose bodies run as coroutines (see
// rtos.NewTask).
func plainOps(ops []Op) bool {
	for _, op := range ops {
		switch op.Op {
		case "execute", "delay", "yield", "nopreempt_begin", "nopreempt_end", "setprio":
		case "repeat":
			if !plainOps(op.Body) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// compileOps translates a plain body into program ops, mirroring runOps one
// for one: execute, delay and yield become yield ops, the other plain ops
// inline steps, repeat a counted loop.
func compileOps(pb *rtos.ProgramBuilder, ops []Op) {
	for _, op := range ops {
		switch op.Op {
		case "execute":
			pb.Compute(op.For.Time())
		case "delay":
			pb.WaitFor(op.For.Time())
		case "yield":
			pb.Yield()
		case "nopreempt_begin":
			pb.Do(func(c *rtos.TaskCtx) { c.DisablePreemption() })
		case "nopreempt_end":
			pb.Do(func(c *rtos.TaskCtx) { c.EnablePreemption() })
		case "setprio":
			p := op.Value
			pb.Do(func(c *rtos.TaskCtx) { c.SetPriority(p) })
		case "repeat":
			pb.Loop(op.Count)
			compileOps(pb, op.Body)
			pb.End()
		default:
			panic(fmt.Sprintf("scenario: op %q has no program form", op.Op))
		}
	}
}
