package scenario

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// This file computes shard partitions for the parallel multi-kernel engine
// (internal/psim). A partition is only legal when the shards interact
// exclusively through latency-bearing bus channels: every other coupling —
// events, queues, shared variables, constraints, servers, IRQs, watchdogs,
// execution traces — forces the participants onto the same shard, because
// those objects are mutated synchronously with no simulated latency to hide
// the cross-kernel skew behind. The partitioner therefore first folds the
// scenario into "atoms" (maximal sets of processors and hardware tasks
// transitively connected by anything but a channel), then groups atoms by
// their shard labels, and finally merges small groups to meet a target
// count. Channels crossing the resulting cut become the shard links; their
// minimal bus transfer time is the conservative lookahead.

// ShardGroup is one shard of a partition plan: the processors and hardware
// tasks elaborated onto one kernel.
type ShardGroup struct {
	// Label is the scenario-provided shard label, when the group carries one.
	Label string
	// Processors and Hardware list the members in declaration order.
	Processors []string
	Hardware   []string
}

// ChannelRoute locates a channel in the plan: the shard its senders live on
// and the shard its receivers live on (equal for shard-local channels).
type ChannelRoute struct {
	From, To int
}

// ChannelLink is one cross-shard channel: messages sent on shard From
// surface on shard To no earlier than the sender's clock plus Lookahead
// (the channel's minimal bus transfer time).
type ChannelLink struct {
	Channel   string
	From, To  int
	Lookahead sim.Time
}

// ShardPlan is a validated partition of a scenario for the parallel engine.
// The per-kind maps assign every named object to its owning group, so a
// shard build can filter elaboration to exactly the local objects.
type ShardPlan struct {
	Groups  []ShardGroup
	Horizon sim.Time

	Events      map[string]int
	Queues      map[string]int
	Shared      map[string]int
	Constraints map[string]int
	Servers     map[string]int
	IRQs        map[string]int
	Watchdogs   map[string]int
	Buses       map[string]int

	// Channels routes every channel; Links lists only the cross-shard ones.
	Channels map[string]ChannelRoute
	Links    []ChannelLink
}

// dsu is a plain union-find over node indices.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &dsu{parent: p}
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		// Keep the smaller root so atom ordering follows declaration order.
		if rb < ra {
			ra, rb = rb, ra
		}
		d.parent[rb] = ra
	}
}

// partitioner accumulates object usage while walking the scenario bodies.
// Nodes are processors (0..P-1) then hardware tasks (P..P+H-1).
type partitioner struct {
	s     *System
	d     *dsu
	procs map[string]int // processor name -> node

	// firstUser records, per object kind and name, the first node that uses
	// the object; subsequent users are unioned with it.
	events, queues, shared, constraints, servers, irqs, watchdogs, traces map[string]int

	// chanSenders/chanReceivers record the first sender/receiver node per
	// channel; busSenders the first sender node per bus. Channels are the
	// cut-allowed edges, but all senders of one bus contend on its mutex,
	// so they must be co-located, as must all receivers of one channel
	// (they share its queue object).
	chanSenders, chanReceivers map[string]int
	busSenders                 map[string]int
}

func (p *partitioner) use(m map[string]int, name string, node int) {
	if first, ok := m[name]; ok {
		p.d.union(first, node)
		return
	}
	m[name] = node
}

// channelBus returns the bus of a channel (validated to exist).
func (p *partitioner) channelBus(name string) string {
	for _, c := range p.s.Channels {
		if c.Name == name {
			return c.Bus
		}
	}
	return ""
}

func (p *partitioner) walkOps(node int, ops []Op) {
	for _, op := range ops {
		switch op.Op {
		case "wait", "signal":
			p.use(p.events, op.Event, node)
		case "put", "get", "tryput":
			p.use(p.queues, op.Queue, node)
		case "lock", "unlock", "read", "write":
			p.use(p.shared, op.Shared, node)
		case "lat_start", "lat_stop":
			p.use(p.constraints, op.Constraint, node)
		case "execute_trace":
			// Trace cursors are shared build state: all consumers of one
			// trace must see a single consumption order.
			p.use(p.traces, op.Trace, node)
		case "kick":
			p.use(p.watchdogs, op.Watchdog, node)
			for _, w := range p.s.Watchdogs {
				if w.Name == op.Watchdog {
					p.d.union(node, p.procs[w.Processor])
				}
			}
		case "raise":
			p.use(p.irqs, op.IRQ, node)
			for _, irq := range p.s.IRQs {
				if irq.Name == op.IRQ {
					p.d.union(node, p.procs[irq.Processor])
				}
			}
		case "submit":
			p.use(p.servers, op.Server, node)
			for _, sv := range p.s.Servers {
				if sv.Name == op.Server {
					p.d.union(node, p.procs[sv.Processor])
				}
			}
			if op.Constraint != "" {
				p.use(p.constraints, op.Constraint, node)
			}
		case "send":
			p.use(p.chanSenders, op.Channel, node)
			p.use(p.busSenders, p.channelBus(op.Channel), node)
		case "recv":
			p.use(p.chanReceivers, op.Channel, node)
		case "repeat":
			p.walkOps(node, op.Body)
		}
	}
}

// Partition computes the shard plan for this scenario. target selects the
// grouping: 0 groups by shard labels only (each unlabeled atom becomes its
// own shard), 1 collapses everything onto a single shard, and N > 1 merges
// the smallest groups until at most N remain. Atoms — processors and
// hardware tasks coupled by anything but a channel — are never split.
//
// A multi-shard plan additionally requires a finite horizon and a positive
// lookahead (bus arbitration plus per-message transfer time) on every
// cross-shard channel; violations are reported as errors rather than being
// silently run sequentially.
func (s *System) Partition(target int) (*ShardPlan, error) {
	if target < 0 {
		return nil, fmt.Errorf("scenario: negative shard count %d", target)
	}
	nproc := len(s.Processors)
	nodes := nproc + len(s.Hardware)
	if nodes == 0 {
		return nil, fmt.Errorf("scenario: nothing to partition (no processors or hardware tasks)")
	}
	p := &partitioner{
		s:             s,
		d:             newDSU(nodes),
		procs:         make(map[string]int, nproc),
		events:        map[string]int{},
		queues:        map[string]int{},
		shared:        map[string]int{},
		constraints:   map[string]int{},
		servers:       map[string]int{},
		irqs:          map[string]int{},
		watchdogs:     map[string]int{},
		traces:        map[string]int{},
		chanSenders:   map[string]int{},
		chanReceivers: map[string]int{},
		busSenders:    map[string]int{},
	}
	for i, cpu := range s.Processors {
		p.procs[cpu.Name] = i
	}

	// Objects anchored to a processor couple their users to that processor.
	for _, sv := range s.Servers {
		p.use(p.servers, sv.Name, p.procs[sv.Processor])
	}
	for _, irq := range s.IRQs {
		node := p.procs[irq.Processor]
		p.use(p.irqs, irq.Name, node)
		p.walkOps(node, irq.Body)
	}
	for _, w := range s.Watchdogs {
		p.use(p.watchdogs, w.Name, p.procs[w.Processor])
	}
	for _, t := range s.Tasks {
		p.walkOps(p.procs[t.Processor], t.Body)
	}
	for i, h := range s.Hardware {
		p.walkOps(nproc+i, h.Body)
	}

	// Co-locate all receivers of each channel (walkOps already unioned
	// them via chanReceivers/use) and check per-bus sender co-location —
	// both already enforced by use(); nothing further to union here.

	// Resolve atoms and their shard labels.
	atomOf := make([]int, nodes)        // node -> atom index
	var atomRoots []int                 // atom index -> root node
	rootAtom := make(map[int]int, 8)    // root node -> atom index
	atomLabel := make(map[int]string)   // atom index -> label
	atomLabelBy := make(map[int]string) // atom index -> processor that set it
	for n := 0; n < nodes; n++ {
		r := p.d.find(n)
		a, ok := rootAtom[r]
		if !ok {
			a = len(atomRoots)
			rootAtom[r] = a
			atomRoots = append(atomRoots, r)
		}
		atomOf[n] = a
	}
	for i, cpu := range s.Processors {
		if cpu.Shard == "" {
			continue
		}
		a := atomOf[i]
		if prev, ok := atomLabel[a]; ok && prev != cpu.Shard {
			return nil, fmt.Errorf(
				"scenario: processors %q (shard %q) and %q (shard %q) share synchronous state and cannot be placed on different shards",
				atomLabelBy[a], prev, cpu.Name, cpu.Shard)
		}
		atomLabel[a] = cpu.Shard
		atomLabelBy[a] = cpu.Name
	}

	// Form groups: atoms sharing a label coalesce; unlabeled atoms stand
	// alone. Group order follows first appearance (declaration order).
	groupOf := make([]int, len(atomRoots)) // atom -> group
	var groupLabels []string
	labelGroup := map[string]int{}
	for a := range atomRoots {
		if lbl, ok := atomLabel[a]; ok {
			if g, seen := labelGroup[lbl]; seen {
				groupOf[a] = g
				continue
			}
			labelGroup[lbl] = len(groupLabels)
			groupOf[a] = len(groupLabels)
			groupLabels = append(groupLabels, lbl)
			continue
		}
		groupOf[a] = len(groupLabels)
		groupLabels = append(groupLabels, "")
	}

	// Merge towards the target count: repeatedly fold the lightest group
	// into the next-lightest (weight = member count, ties by index so the
	// result is deterministic).
	ngroups := len(groupLabels)
	if target == 1 {
		for a := range groupOf {
			groupOf[a] = 0
		}
		ngroups = 1
	} else if target > 1 && ngroups > target {
		weight := make([]int, ngroups)
		for n := 0; n < nodes; n++ {
			weight[groupOf[atomOf[n]]]++
		}
		alias := make([]int, ngroups)
		for i := range alias {
			alias[i] = i
		}
		live := ngroups
		for live > target {
			lightest, second := -1, -1
			for g := 0; g < ngroups; g++ {
				if alias[g] != g {
					continue
				}
				switch {
				case lightest < 0 || weight[g] < weight[lightest]:
					second = lightest
					lightest = g
				case second < 0 || weight[g] < weight[second]:
					second = g
				}
			}
			// Fold into the lower index so group order stays stable.
			survivor, dead := lightest, second
			if survivor > dead {
				survivor, dead = dead, survivor
			}
			weight[survivor] += weight[dead]
			alias[dead] = survivor
			live--
		}
		resolve := func(g int) int {
			for alias[g] != g {
				g = alias[g]
			}
			return g
		}
		compact := map[int]int{}
		var order []int
		for g := 0; g < ngroups; g++ {
			r := resolve(g)
			if _, ok := compact[r]; !ok {
				compact[r] = len(order)
				order = append(order, r)
			}
		}
		for a := range groupOf {
			groupOf[a] = compact[resolve(groupOf[a])]
		}
		relabel := make([]string, len(order))
		for i, r := range order {
			relabel[i] = groupLabels[r]
		}
		groupLabels = relabel
		ngroups = len(order)
	}

	plan := &ShardPlan{
		Groups:      make([]ShardGroup, ngroups),
		Horizon:     sim.Time(s.Horizon),
		Events:      map[string]int{},
		Queues:      map[string]int{},
		Shared:      map[string]int{},
		Constraints: map[string]int{},
		Servers:     map[string]int{},
		IRQs:        map[string]int{},
		Watchdogs:   map[string]int{},
		Buses:       map[string]int{},
		Channels:    map[string]ChannelRoute{},
	}
	for g := range plan.Groups {
		plan.Groups[g].Label = groupLabels[g]
	}
	nodeGroup := func(n int) int { return groupOf[atomOf[n]] }
	for i, cpu := range s.Processors {
		g := nodeGroup(i)
		plan.Groups[g].Processors = append(plan.Groups[g].Processors, cpu.Name)
	}
	for i, h := range s.Hardware {
		g := nodeGroup(nproc + i)
		plan.Groups[g].Hardware = append(plan.Groups[g].Hardware, h.Name)
	}

	// Assign object ownership: the group of any user; unused objects land
	// on group 0 so they still elaborate exactly once.
	owner := func(users map[string]int, name string) int {
		if n, ok := users[name]; ok {
			return nodeGroup(n)
		}
		return 0
	}
	for _, e := range s.Events {
		plan.Events[e.Name] = owner(p.events, e.Name)
	}
	for _, q := range s.Queues {
		plan.Queues[q.Name] = owner(p.queues, q.Name)
	}
	for _, sv := range s.Shared {
		plan.Shared[sv.Name] = owner(p.shared, sv.Name)
	}
	for _, c := range s.Constraints {
		plan.Constraints[c.Name] = owner(p.constraints, c.Name)
	}
	for _, sv := range s.Servers {
		plan.Servers[sv.Name] = owner(p.servers, sv.Name)
	}
	for _, irq := range s.IRQs {
		plan.IRQs[irq.Name] = owner(p.irqs, irq.Name)
	}
	for _, w := range s.Watchdogs {
		plan.Watchdogs[w.Name] = owner(p.watchdogs, w.Name)
	}
	for _, b := range s.Buses {
		plan.Buses[b.Name] = owner(p.busSenders, b.Name)
	}

	// Route channels and derive the cross-shard links.
	for _, c := range s.Channels {
		from, to := -1, -1
		if n, ok := p.chanSenders[c.Name]; ok {
			from = nodeGroup(n)
		}
		if n, ok := p.chanReceivers[c.Name]; ok {
			to = nodeGroup(n)
		}
		switch {
		case from < 0 && to < 0:
			from, to = plan.Buses[c.Bus], plan.Buses[c.Bus]
		case from < 0:
			from = to
		case to < 0:
			to = from
		}
		plan.Channels[c.Name] = ChannelRoute{From: from, To: to}
		if from != to {
			size := c.MessageBytes
			if size < 1 {
				size = 1
			}
			var def BusDef
			for _, b := range s.Buses {
				if b.Name == c.Bus {
					def = b
				}
			}
			la := sim.Time(def.Arbitration) + sim.Time(size)*sim.Time(def.PerByte)
			plan.Links = append(plan.Links, ChannelLink{
				Channel: c.Name, From: from, To: to, Lookahead: la,
			})
		}
	}
	sort.Slice(plan.Links, func(i, j int) bool { return plan.Links[i].Channel < plan.Links[j].Channel })

	if ngroups > 1 {
		if plan.Horizon <= 0 {
			return nil, fmt.Errorf("scenario: multi-shard simulation requires a finite horizon")
		}
		for _, l := range plan.Links {
			if l.Lookahead <= 0 {
				return nil, fmt.Errorf(
					"scenario: cross-shard channel %q has zero lookahead: its bus needs a positive arbitration or per-byte transfer time",
					l.Channel)
			}
		}
	}
	return plan, nil
}

// HasShardLabels reports whether any processor carries a shard label, which
// opts the scenario into the parallel engine even without a -shards flag.
func (s *System) HasShardLabels() bool {
	for _, cpu := range s.Processors {
		if cpu.Shard != "" {
			return true
		}
	}
	return false
}
