package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
)

// The generators below produce scenario JSON from a seed. The program under
// test only ever sees these bytes; the same seed always yields the same
// bytes (math/rand/v2's PCG is specified bit-for-bit).

// Scenario schema subset the generators emit. Durations are strings in the
// scenario syntax ("37us"); empty fields are omitted.
type genSystem struct {
	Name        string          `json:"name"`
	Horizon     string          `json:"horizon"`
	Processors  []genProcessor  `json:"processors"`
	Queues      []genQueue      `json:"queues,omitempty"`
	Shared      []genShared     `json:"shared,omitempty"`
	Constraints []genConstraint `json:"constraints,omitempty"`
	Buses       []genBus        `json:"buses,omitempty"`
	Channels    []genChannel    `json:"channels,omitempty"`
	Tasks       []genTask       `json:"tasks"`
}

type genProcessor struct {
	Name      string      `json:"name"`
	Overheads genOverhead `json:"overheads"`
}

type genOverhead struct {
	Scheduling  string `json:"scheduling"`
	ContextSave string `json:"contextSave"`
	ContextLoad string `json:"contextLoad"`
}

type genQueue struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
}

type genShared struct {
	Name    string `json:"name"`
	Initial int    `json:"initial"`
}

type genConstraint struct {
	Name  string `json:"name"`
	Limit string `json:"limit"`
}

type genBus struct {
	Name        string `json:"name"`
	PerByte     string `json:"perByte"`
	Arbitration string `json:"arbitration"`
}

type genChannel struct {
	Name         string `json:"name"`
	Bus          string `json:"bus"`
	Capacity     int    `json:"capacity"`
	MessageBytes int    `json:"messageBytes"`
}

type genTask struct {
	Name      string  `json:"name"`
	Processor string  `json:"processor"`
	Priority  int     `json:"priority"`
	Period    string  `json:"period,omitempty"`
	StartAt   string  `json:"startAt,omitempty"`
	Loop      bool    `json:"loop,omitempty"`
	Body      []genOp `json:"body"`
}

type genOp struct {
	Op         string `json:"op"`
	For        string `json:"for,omitempty"`
	Queue      string `json:"queue,omitempty"`
	Shared     string `json:"shared,omitempty"`
	Channel    string `json:"channel,omitempty"`
	Constraint string `json:"constraint,omitempty"`
	Value      int    `json:"value,omitempty"`
}

func us(n int) string { return fmt.Sprintf("%dus", n) }

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Generator streams: one per generated artifact kind, so adding a draw to
// one generator never shifts another's inputs.
const (
	streamSoC uint64 = iota + 1
	streamWide
	streamDaemonHot
	streamDaemonFresh
	streamRespell
)

// The pipeline SoC's shape: one sequential run takes about a second of host
// time on a 2-core x86 host.
const (
	socProcessors  = 4
	socHorizonUS   = 1_600_000
	socSrcPeriodUS = 200  // period of the stage-0 source
	socBackground  = 4    // periodic background tasks per processor
	socMsgBytes    = 1024 // pipeline message size
)

// genSoC builds the soc_long / soc_shards scenario: a processor pipeline
// whose stages pass socMsgBytes messages over one private bus per link, plus
// rate-monotonic periodic background tasks on every processor. Each channel
// is sized to hold every message the source can emit within the horizon,
// so no channel can fill and a sharded run cutting it keeps sequential
// semantics.
func genSoC(seed uint64) []byte {
	r := newRand(seed, streamSoC)
	sys := genSystem{Name: fmt.Sprintf("soc-pipeline-%d", seed), Horizon: us(socHorizonUS)}
	// Every downstream stage forwards at most what it receives, so the
	// source's release count bounds the messages on every link.
	capacity := socHorizonUS/socSrcPeriodUS + 1
	for i := 0; i < socProcessors; i++ {
		cpu := fmt.Sprintf("cpu%d", i)
		sys.Processors = append(sys.Processors, genProcessor{Name: cpu, Overheads: genOverhead{
			Scheduling: us(1), ContextSave: us(1 + r.IntN(2)), ContextLoad: us(1 + r.IntN(2))}})
		if i+1 < socProcessors {
			bus := fmt.Sprintf("bus%d%d", i, i+1)
			sys.Buses = append(sys.Buses, genBus{Name: bus, PerByte: "1ns", Arbitration: "100ns"})
			sys.Channels = append(sys.Channels, genChannel{Name: fmt.Sprintf("ch%d%d", i, i+1), Bus: bus,
				Capacity: capacity, MessageBytes: socMsgBytes})
		}
	}
	// Pipeline stages: the source is periodic, later stages loop on recv.
	// Stage work is a seeded deal of a fixed set of eighths to quarters of
	// the source period.
	works := shuffled(r, socProcessors, []int{socSrcPeriodUS / 8, socSrcPeriodUS * 3 / 16, socSrcPeriodUS / 4, socSrcPeriodUS * 5 / 32})
	for i := 0; i < socProcessors; i++ {
		cpu := fmt.Sprintf("cpu%d", i)
		work := works[i]
		t := genTask{Name: fmt.Sprintf("stage%d", i), Processor: cpu, Priority: 100}
		if i == 0 {
			t.Period = us(socSrcPeriodUS)
		} else {
			t.Loop = true
			t.Body = append(t.Body, genOp{Op: "recv", Channel: fmt.Sprintf("ch%d%d", i-1, i)})
		}
		if i == socProcessors-1 {
			c := fmt.Sprintf("stage%d.work", i)
			sys.Constraints = append(sys.Constraints, genConstraint{Name: c, Limit: us(4 * socSrcPeriodUS)})
			t.Body = append(t.Body, genOp{Op: "lat_start", Constraint: c},
				genOp{Op: "execute", For: us(work)}, genOp{Op: "lat_stop", Constraint: c})
		} else {
			t.Body = append(t.Body, genOp{Op: "execute", For: us(work)},
				genOp{Op: "send", Channel: fmt.Sprintf("ch%d%d", i, i+1), Value: i + 1})
		}
		sys.Tasks = append(sys.Tasks, t)
	}
	// Background load: rate-monotonic priorities (shorter period, higher
	// priority, all below the pipeline stage). Periods and loads are a fixed
	// multiset dealt out in a seeded order, so every seed simulates the same
	// number of releases. Every task is released at time zero: seeded release
	// offsets moved the preemption count, and with it the trace size and
	// allocation, by several percent between seeds.
	periods := shuffled(r, socProcessors*socBackground, []int{300, 500, 700, 900, 1100, 1300, 1700, 1900})
	loads := shuffled(r, socProcessors*socBackground, []int{3, 4, 5, 6, 7})
	for i := 0; i < socProcessors; i++ {
		type bg struct{ period, wcet int }
		var tasks []bg
		for j := 0; j < socBackground; j++ {
			k := i*socBackground + j
			tasks = append(tasks, bg{period: periods[k], wcet: periods[k] * loads[k] / 100})
		}
		sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].period < tasks[b].period })
		for j, t := range tasks {
			sys.Tasks = append(sys.Tasks, genTask{
				Name: fmt.Sprintf("bg%d_%d", i, j), Processor: fmt.Sprintf("cpu%d", i),
				Priority: 50 - j, Period: us(t.period),
				Body: []genOp{{Op: "execute", For: us(t.wcet)}}})
		}
	}
	return mustJSON(sys)
}

// wideParams sizes the sweep_wide base scenario.
type wideParams struct {
	Processors int
	Tasks      int // per processor
	Horizon    int // us
}

var defaultWide = wideParams{Processors: 8, Tasks: 12, Horizon: 500}

// genWide builds a bus-free scenario of Processors x Tasks periodic tasks
// coupled by queues (producer/consumer pairs across neighbouring
// processors) and shared variables. Having no bus ops, every body has a
// continuation form, so the build layer auto-lowers it when the task engine
// is left unset.
func genWide(seed uint64, p wideParams, name string, stream uint64) []byte {
	r := newRand(seed, stream)
	sys := genSystem{Name: name, Horizon: us(p.Horizon)}
	for i := 0; i < p.Processors; i++ {
		sys.Processors = append(sys.Processors, genProcessor{Name: fmt.Sprintf("cpu%d", i),
			Overheads: genOverhead{Scheduling: "500ns", ContextSave: "1us", ContextLoad: "1us"}})
		sys.Shared = append(sys.Shared, genShared{Name: fmt.Sprintf("var%d", i), Initial: i})
		sys.Queues = append(sys.Queues, genQueue{Name: fmt.Sprintf("q%d", i), Capacity: 4})
	}
	// Each role (producer, consumer, writer, reader) draws its periods and
	// loads from a fixed multiset in a seeded order; consumers take their
	// producer's period so queues neither starve nor fill systematically.
	roleCount := make([]int, 4)
	for j := 0; j < p.Tasks; j++ {
		roleCount[j%4] += p.Processors
	}
	var periods, loads [4][]int
	for role := range periods {
		periods[role] = shuffled(r, roleCount[role], []int{40, 60, 80, 100, 120, 140, 160, 180})
		loads[role] = shuffled(r, roleCount[role], []int{2, 3, 4, 5})
	}
	next := make([]int, 4)
	producerPeriods := map[int][]string{}
	for i := 0; i < p.Processors; i++ {
		for j := 0; j < p.Tasks; j++ {
			role := j % 4
			k := next[role]
			next[role]++
			period := periods[role][k]
			t := genTask{Name: fmt.Sprintf("t%d_%d", i, j), Processor: fmt.Sprintf("cpu%d", i), Priority: 100 - j,
				Period: us(period), StartAt: us(r.IntN(10))}
			t.Body = append(t.Body, genOp{Op: "execute", For: us(max(1, period*loads[role][k]/100))})
			switch role {
			case 0: // producer into this processor's queue
				t.Body = append(t.Body, genOp{Op: "put", Queue: fmt.Sprintf("q%d", i), Value: j})
				producerPeriods[i] = append(producerPeriods[i], t.Period)
			case 1: // consumer of the neighbour's queue
				t.Body = append(t.Body, genOp{Op: "get", Queue: fmt.Sprintf("q%d", (i+p.Processors-1)%p.Processors)})
			case 2:
				t.Body = append(t.Body, genOp{Op: "write", Shared: fmt.Sprintf("var%d", r.IntN(p.Processors)), Value: j})
			case 3:
				t.Body = append(t.Body, genOp{Op: "read", Shared: fmt.Sprintf("var%d", r.IntN(p.Processors))})
			}
			sys.Tasks = append(sys.Tasks, t)
		}
	}
	// The n-th consumer of a queue runs at the n-th producer's period.
	consumed := map[string]int{}
	for k, t := range sys.Tasks {
		if q := t.Body[1].Queue; t.Body[1].Op == "get" {
			var src int
			fmt.Sscanf(q, "q%d", &src)
			if ps := producerPeriods[src]; len(ps) > 0 {
				sys.Tasks[k].Period = ps[consumed[q]%len(ps)]
			}
			consumed[q]++
		}
	}
	return mustJSON(sys)
}

// sweepSpec is the sweep_wide grid: engines x task engines x policies x
// speeds x overhead sets, run on nproc workers.
func sweepSpec(workers int) []byte {
	spec := map[string]any{
		"engines":     []string{"procedural", "threaded"},
		"taskEngines": []string{"goroutine", "continuation"},
		"policies":    []string{"priority", "fifo", "rr", "edf"},
		"quantum":     "10us",
		"speeds":      []float64{1, 1.5},
		"overheads": []map[string]string{
			{"scheduling": "500ns", "contextSave": "1us", "contextLoad": "1us"},
			{"scheduling": "1us", "contextSave": "2us", "contextLoad": "2us"},
		},
		"workers": workers,
	}
	return mustJSON(spec)
}

// daemonParams sizes the daemon_mix scenarios: small enough that a cache
// miss costs a few milliseconds, so the mix is dominated by the service
// path rather than by simulation.
var daemonParams = wideParams{Processors: 2, Tasks: 5, Horizon: 1000}

// daemonHotSet is the number of distinct scenarios the cache-hit half of
// daemon_mix resubmits.
const daemonHotSet = 4

func genDaemonHot(seed uint64, i int) []byte {
	return genWide(seed*1000+uint64(i), daemonParams, fmt.Sprintf("hot-%d-%d", seed, i), streamDaemonHot)
}

func genDaemonFresh(seed uint64, i int) []byte {
	return genWide(seed*1_000_000+uint64(i), daemonParams, fmt.Sprintf("fresh-%d-%d", seed, i), streamDaemonFresh)
}

// shuffled deals n values cycling through base, in an order drawn from r:
// the multiset depends only on n, never on the seed.
func shuffled(r *rand.Rand, n int, base []int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generator types always marshal
	}
	return b
}

// respell re-encodes a JSON document with its object keys in an order drawn
// from r and with varying whitespace: the same scenario to the program's
// canonical hash, different bytes on the wire.
func respell(doc []byte, r *rand.Rand) []byte {
	var v any
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		panic(err) // only generator output is respelled
	}
	var b strings.Builder
	writeRespelled(&b, v, r, 0)
	return []byte(b.String())
}

func writeRespelled(b *strings.Builder, v any, r *rand.Rand, depth int) {
	pad := func() {
		switch r.IntN(3) {
		case 0:
		case 1:
			b.WriteByte(' ')
		case 2:
			b.WriteString("\n" + strings.Repeat("\t", depth))
		}
	}
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			pad()
			b.Write(mustJSON(k))
			b.WriteByte(':')
			pad()
			writeRespelled(b, x[k], r, depth+1)
		}
		pad()
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			pad()
			writeRespelled(b, e, r, depth+1)
		}
		b.WriteByte(']')
	default:
		b.Write(mustJSON(x))
	}
}
