package explore

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/batch"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config bounds and parameterizes one exploration. New seeds it from the
// scenario's explore block (with defaults); callers may adjust it before Run.
type Config struct {
	// MaxRuns bounds the number of enumerated interleavings.
	MaxRuns int
	// MaxDepth bounds how many choice points of a run may be branched on.
	MaxDepth int
	// JitterSteps is the number of quantized jitter candidates per release.
	JitterSteps int
	// MaxBranch caps the alternatives enumerated at one choice point.
	MaxBranch int
	// Workers bounds concurrent runs within one frontier wave (<= 0: all
	// cores). Any worker count yields the same exploration.
	Workers int
	// Jitter holds the per-task release-jitter bounds to perturb within.
	Jitter map[string]sim.Time
	// ExpectedMiss lists tasks whose deadline misses are not violations (the
	// baseline run's misses are always expected).
	ExpectedMiss []string
	// MaxInversion bounds the longest tolerated priority inversion (0: off).
	MaxInversion sim.Time
	// CheckEngines replays every explored interleaving on the other RTOS
	// engine and requires identical trace signatures.
	CheckEngines bool
}

// Engine explores the schedule space of one scenario.
type Engine struct {
	// Cfg is the effective configuration; adjust before calling Run.
	Cfg Config

	base  []byte
	desc  *scenario.System
	fp    *footprints
	other string // the engine CheckEngines compares against

	// Metrics counts the exploration's own effort: runs by kind, choice
	// points, pruned alternatives and violations.
	Metrics *metrics.Registry
}

// New parses and validates the scenario and seeds the configuration from its
// explore block (absent fields and an absent block get the documented
// defaults).
func New(base []byte) (*Engine, error) {
	desc, err := scenario.Parse(base)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Cfg: Config{
			MaxRuns:     256,
			MaxDepth:    32,
			JitterSteps: 3,
			MaxBranch:   24,
			Jitter:      map[string]sim.Time{},
		},
		base:    base,
		desc:    desc,
		fp:      newFootprints(desc),
		other:   "threaded",
		Metrics: metrics.NewRegistry(),
	}
	for _, p := range desc.Processors {
		if p.Engine == "threaded" {
			e.other = "procedural"
			break
		}
	}
	if x := desc.Explore; x != nil {
		if x.MaxRuns > 0 {
			e.Cfg.MaxRuns = x.MaxRuns
		}
		if x.MaxDepth > 0 {
			e.Cfg.MaxDepth = x.MaxDepth
		}
		if x.JitterSteps > 0 {
			e.Cfg.JitterSteps = x.JitterSteps
		}
		if x.MaxBranch > 0 {
			e.Cfg.MaxBranch = x.MaxBranch
		}
		for task, d := range x.Jitter {
			e.Cfg.Jitter[task] = d.Time()
		}
		e.Cfg.ExpectedMiss = append(e.Cfg.ExpectedMiss, x.ExpectedMiss...)
		e.Cfg.MaxInversion = x.MaxInversion.Time()
		e.Cfg.CheckEngines = x.CheckEngines
	}
	return e, nil
}

// RunResult is the outcome of one explored interleaving.
type RunResult struct {
	// Trace is the full decision log — itself a replayable choice trace.
	Trace Trace
	// NAlts holds each decision's alternative count (branching width).
	NAlts []uint32
	// Err is the failure text of a failed run ("" on a clean finish).
	Err string
	// Mismatch marks a replay whose trace did not match the run's choice
	// points (Err then holds the first divergence).
	Mismatch bool
	// End and Finish tell when and why the run ended.
	End    sim.Time
	Finish string
	// Sig is the engine-equivalence trace signature.
	Sig string
	// Misses holds the tasks that missed a deadline.
	Misses map[string]bool
	// WatchdogFires counts expirations per watchdog.
	WatchdogFires map[string]uint64
	// Constraints counts violations per non-deadline timing constraint.
	Constraints map[string]int
	// MaxInv is the longest priority-inversion interval of any task, and
	// MaxInvTask the (alphabetically first) task that endured it.
	MaxInv     sim.Time
	MaxInvTask string
	// Stats are the run's choice-point statistics.
	Stats runStats
}

// Violation is one invariant violation, with the minimized choice trace that
// reproduces it.
type Violation struct {
	// Kind is the invariant that failed: "run-failure", "deadline-miss",
	// "inversion", "engine-divergence" or "trace-mismatch".
	Kind string
	// Subject anchors deduplication and minimization: the missing task, the
	// inverted task, or the failure's first line.
	Subject string
	// Detail is the human-readable description.
	Detail string
	// Trace is the minimized encoded choice trace reproducing the violation.
	Trace string
	// Replayed reports that the minimized trace was replayed twice and
	// reproduced the violation with byte-identical decision logs and equal
	// trace signatures.
	Replayed bool
	// Run is the index of the explored run that first exhibited it.
	Run int
}

// baseline holds the unperturbed run's outcomes: what every explored
// interleaving is judged against.
type baseline struct {
	// miss holds the tasks expected to miss deadlines: the baseline run's
	// misses plus the scenario's expectedMiss list.
	miss map[string]bool
	// wdFires and constraints hold the baseline expiration and violation
	// counts; an interleaving exceeding them violates an invariant.
	wdFires     map[string]uint64
	constraints map[string]int
}

func (e *Engine) newBaseline(r *RunResult) *baseline {
	b := &baseline{
		miss:        map[string]bool{},
		wdFires:     r.WatchdogFires,
		constraints: r.Constraints,
	}
	for task := range r.Misses {
		b.miss[task] = true
	}
	for _, task := range e.Cfg.ExpectedMiss {
		b.miss[task] = true
	}
	return b
}

// Summary aggregates one exploration.
type Summary struct {
	// Explored counts enumerated interleavings; EngineRuns the extra
	// cross-engine comparison runs; ReplayRuns the minimization and
	// verification runs.
	Explored   int
	EngineRuns int
	ReplayRuns int
	// Dropped counts frontier entries abandoned at the MaxRuns bound.
	Dropped int
	// Stats aggregates the explored runs' choice-point statistics: the naive
	// versus pruned schedule-space sizes quantify the commutativity pruning.
	Stats runStats
	// Violations holds the distinct invariant violations found.
	Violations []Violation
}

// Run enumerates the schedule space breadth-first from the unperturbed
// baseline, judging every interleaving against the invariants. The search
// tree branches each explored run at every decision past its prefix, so each
// interleaving is generated exactly once; MaxRuns truncates the frontier
// (truncation is counted, never silent).
func (e *Engine) Run() (*Summary, error) {
	sum := &Summary{}
	seen := map[string]bool{}
	var base *baseline
	frontier := [][]Decision{nil}
	for len(frontier) > 0 && sum.Explored < e.Cfg.MaxRuns {
		wave := frontier
		frontier = nil
		if room := e.Cfg.MaxRuns - sum.Explored; len(wave) > room {
			sum.Dropped += len(wave) - room
			wave = wave[:room]
		}
		outs := make([]*RunResult, len(wave))
		batch.ForEach(len(wave), e.Cfg.Workers, func(i int) { outs[i] = e.runOne(wave[i], "") })
		for wi, r := range outs {
			idx := sum.Explored
			sum.Explored++
			sum.Stats.add(r.Stats)
			if idx == 0 {
				if r.Err != "" {
					return sum, fmt.Errorf("explore: baseline run failed: %s", firstLine(r.Err))
				}
				base = e.newBaseline(r)
			}
			v := e.judge(r, base)
			if v == nil && e.Cfg.CheckEngines {
				v = e.checkEngines(r, sum)
			}
			if v == nil {
				frontier = e.expand(frontier, wave[wi], r)
				continue
			}
			v.Run = idx
			key := v.Kind + "|" + v.Subject
			if seen[key] {
				continue
			}
			seen[key] = true
			e.minimize(v, r, base, sum)
			sum.Violations = append(sum.Violations, *v)
		}
	}
	sum.Dropped += len(frontier)
	e.record(sum)
	return sum, nil
}

// Replay runs one choice trace against the scenario and judges it against
// the baseline's expectations, returning the run and the violation it
// reproduces (nil when it satisfies every invariant).
func (e *Engine) Replay(t Trace) (*RunResult, *Violation, error) {
	br := e.runOne(nil, "")
	if br.Err != "" {
		return nil, nil, fmt.Errorf("explore: baseline run failed: %s", firstLine(br.Err))
	}
	r := e.runOne(t.Decisions, "")
	return r, e.judge(r, e.newBaseline(br)), nil
}

// runOne simulates one interleaving: a fresh parse and build of the base
// scenario (runs share nothing), the chooser installed at both choice
// points, inversion tracking on.
func (e *Engine) runOne(prefix []Decision, engine string) *RunResult {
	res := &RunResult{
		Misses:        map[string]bool{},
		WatchdogFires: map[string]uint64{},
		Constraints:   map[string]int{},
	}
	desc, err := scenario.Parse(e.base)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if engine != "" {
		for i := range desc.Processors {
			desc.Processors[i].Engine = engine
		}
	}
	bounds := map[string]sim.Time{}
	injected := map[string]bool{}
	for i := range desc.Tasks {
		t := &desc.Tasks[i]
		b, ok := e.Cfg.Jitter[t.Name]
		if !ok {
			continue
		}
		bounds[t.Name] = b
		if t.Jitter.Time() == 0 {
			injected[t.Name] = true
		}
		t.Jitter = scenario.Duration(b)
	}
	built, err := desc.Build()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	ch := newChooser(e.fp, e.Cfg.JitterSteps, e.Cfg.MaxBranch, bounds, injected, prefix)
	built.Sys.K.SetTimedPermuter(ch)
	built.Sys.SetReleaseJitterHook(ch.jitterFor)
	built.Sys.EnableInversionTracking()
	rep, runErr := built.RunChecked()
	if runErr != nil {
		res.Err = runErr.Error()
		shutdownQuietly(built)
	}
	res.End = built.Sys.Now()
	res.Finish = rep.Reason.String()
	res.Trace = Trace{Decisions: ch.log}
	res.NAlts = ch.nalts
	res.Stats = ch.stats
	if ch.err != nil {
		res.Mismatch = true
		if res.Err == "" {
			res.Err = ch.err.Error()
		}
	}
	res.Sig = trace.Signature(built.Sys.Rec, res.End)
	for _, viol := range built.Sys.Constraints.Violations() {
		if task, ok := strings.CutSuffix(viol.Name, ".deadline"); ok {
			res.Misses[task] = true
		} else {
			res.Constraints[viol.Name]++
		}
	}
	for name, wd := range built.Watchdogs {
		res.WatchdogFires[name] = wd.Fired()
	}
	for _, name := range sortedKeys(built.Tasks) {
		if inv := built.Tasks[name].MaxInversion(); inv > res.MaxInv {
			res.MaxInv = inv
			res.MaxInvTask = name
		}
	}
	return res
}

// judge checks one run against the invariants, returning the first violation.
func (e *Engine) judge(r *RunResult, base *baseline) *Violation {
	if r.Mismatch {
		return &Violation{Kind: "trace-mismatch", Subject: "replay", Detail: r.Err}
	}
	if r.Err != "" {
		return &Violation{Kind: "run-failure", Subject: firstLine(r.Err),
			Detail: "run failed: " + firstLine(r.Err)}
	}
	for _, task := range sortedKeys(r.Misses) {
		if !base.miss[task] {
			return &Violation{Kind: "deadline-miss", Subject: task,
				Detail: fmt.Sprintf("task %s missed a deadline outside the expected set", task)}
		}
	}
	for _, wd := range sortedKeys(r.WatchdogFires) {
		if got, want := r.WatchdogFires[wd], base.wdFires[wd]; got > want {
			return &Violation{Kind: "watchdog", Subject: wd,
				Detail: fmt.Sprintf("watchdog %s fired %d time(s), baseline %d", wd, got, want)}
		}
	}
	for _, name := range sortedKeys(r.Constraints) {
		if got, want := r.Constraints[name], base.constraints[name]; got > want {
			return &Violation{Kind: "constraint", Subject: name,
				Detail: fmt.Sprintf("constraint %s violated %d time(s), baseline %d", name, got, want)}
		}
	}
	if e.Cfg.MaxInversion > 0 && r.MaxInv > e.Cfg.MaxInversion {
		return &Violation{Kind: "inversion", Subject: r.MaxInvTask,
			Detail: fmt.Sprintf("task %s endured a %v priority inversion (bound %v)",
				r.MaxInvTask, r.MaxInv, e.Cfg.MaxInversion)}
	}
	return nil
}

// checkEngines replays the run's trace on the other RTOS engine and compares
// trace signatures. Choice-point keys are content-derived and name-free, so
// the same model-level schedule aligns across engines; a key mismatch means
// the engines disagree on the schedule itself.
func (e *Engine) checkEngines(r *RunResult, sum *Summary) *Violation {
	or := e.runOne(r.Trace.trimmed().Decisions, e.other)
	sum.EngineRuns++
	switch {
	case or.Mismatch:
		return &Violation{Kind: "engine-divergence", Subject: "choice-points",
			Detail: "engines disagree on the choice-point sequence: " + firstLine(or.Err)}
	case or.Err != "":
		return &Violation{Kind: "engine-divergence", Subject: "run",
			Detail: e.other + " engine failed on the same trace: " + firstLine(or.Err)}
	case or.Sig != r.Sig:
		return &Violation{Kind: "engine-divergence", Subject: "signature",
			Detail: fmt.Sprintf("trace signatures differ between engines (%d vs %d bytes)",
				len(r.Sig), len(or.Sig))}
	}
	return nil
}

// expand appends the run's children to the frontier: one child per
// non-default alternative at every decision past the run's prefix (those
// decisions all took the default, so each child trace is generated exactly
// once across the whole search).
func (e *Engine) expand(frontier [][]Decision, prefix []Decision, r *RunResult) [][]Decision {
	depth := len(r.Trace.Decisions)
	if depth > e.Cfg.MaxDepth {
		depth = e.Cfg.MaxDepth
	}
	for pos := len(prefix); pos < depth; pos++ {
		for v := uint32(1); v < r.NAlts[pos]; v++ {
			child := make([]Decision, pos+1)
			copy(child, r.Trace.Decisions[:pos])
			d := r.Trace.Decisions[pos]
			d.Value = v
			child[pos] = d
			frontier = append(frontier, child)
		}
	}
	return frontier
}

// minimize shrinks the violating trace — zeroing non-default decisions from
// the back, keeping a change only when the same violation survives — then
// verifies the result: two replays must reproduce the violation with
// byte-identical decision logs and equal signatures before the trace is
// marked Replayed.
func (e *Engine) minimize(v *Violation, r *RunResult, base *baseline, sum *Summary) {
	matches := func(rr *RunResult) bool {
		if rr.Mismatch && v.Kind != "trace-mismatch" {
			return false
		}
		vv := e.judge(rr, base)
		return vv != nil && vv.Kind == v.Kind && vv.Subject == v.Subject
	}
	dec := append([]Decision(nil), r.Trace.trimmed().Decisions...)
	for i := len(dec) - 1; i >= 0; i-- {
		if dec[i].Value == 0 {
			continue
		}
		trial := append([]Decision(nil), dec...)
		trial[i].Value = 0
		rr := e.runOne(trial, "")
		sum.ReplayRuns++
		if matches(rr) {
			dec = Trace{Decisions: trial}.trimmed().Decisions
			if i > len(dec) {
				i = len(dec)
			}
		}
	}
	min := Trace{Decisions: dec}.trimmed()
	r1 := e.runOne(min.Decisions, "")
	r2 := e.runOne(min.Decisions, "")
	sum.ReplayRuns += 2
	v.Trace = min.Encode()
	v.Replayed = matches(r1) && matches(r2) &&
		r1.Trace.trimmed().Encode() == r2.Trace.trimmed().Encode() &&
		r1.Sig == r2.Sig
}

// record publishes the exploration's effort into the engine's metrics
// registry.
func (e *Engine) record(sum *Summary) {
	e.Metrics.Counter("explore_runs_total", "interleavings explored").Add(uint64(sum.Explored))
	e.Metrics.Counter("explore_engine_runs_total", "cross-engine comparison runs").Add(uint64(sum.EngineRuns))
	e.Metrics.Counter("explore_replay_runs_total", "minimization and verification runs").Add(uint64(sum.ReplayRuns))
	e.Metrics.Counter("explore_choice_points_total", "decision points encountered").Add(sum.Stats.choicePoints)
	e.Metrics.Counter("explore_alts_naive_total", "schedule-space size before commutativity pruning").Add(sum.Stats.naiveAlts)
	e.Metrics.Counter("explore_alts_pruned_total", "schedule-space size after commutativity pruning").Add(sum.Stats.dporAlts)
	e.Metrics.Counter("explore_alts_truncated_total", "alternatives cut by the maxBranch cap").Add(sum.Stats.truncated)
	e.Metrics.Counter("explore_frontier_dropped_total", "frontier entries abandoned at the run bound").Add(uint64(sum.Dropped))
	e.Metrics.Counter("explore_violations_total", "distinct invariant violations found").Add(uint64(len(sum.Violations)))
}

// ChoicePoints, NaiveAlts, PrunedAlts, TruncatedAlts expose the aggregated
// statistics (saturated values render as ">1.8e19" in Report).
func (s *Summary) ChoicePoints() uint64  { return s.Stats.choicePoints }
func (s *Summary) NaiveAlts() uint64     { return s.Stats.naiveAlts }
func (s *Summary) PrunedAlts() uint64    { return s.Stats.dporAlts }
func (s *Summary) TruncatedAlts() uint64 { return s.Stats.truncated }

// Report renders the exploration summary for terminal output.
func (s *Summary) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore: %d interleaving(s) explored, %d violation(s)\n",
		s.Explored, len(s.Violations))
	fmt.Fprintf(&b, "  choice points: %d   same-instant orderings: %s naive, %s after pruning, %s truncated\n",
		s.Stats.choicePoints, satStr(s.Stats.naiveAlts), satStr(s.Stats.dporAlts), satStr(s.Stats.truncated))
	fmt.Fprintf(&b, "  extra runs: %d cross-engine, %d replay/minimization   frontier dropped: %d\n",
		s.EngineRuns, s.ReplayRuns, s.Dropped)
	for i := range s.Violations {
		v := &s.Violations[i]
		status := "replay NOT verified"
		if v.Replayed {
			status = "replay verified"
		}
		fmt.Fprintf(&b, "  violation [%s] at run %d: %s (%s)\n    trace: %s\n",
			v.Kind, v.Run, v.Detail, status, v.Trace)
	}
	return b.String()
}

// satStr renders a saturating counter.
func satStr(v uint64) string {
	if v == math.MaxUint64 {
		return ">1.8e19"
	}
	return fmt.Sprintf("%d", v)
}

// firstLine truncates multi-line failure text.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shutdownQuietly unwinds a failed run's kernel, swallowing any secondary
// panic: the run is already reported as failed.
func shutdownQuietly(built *scenario.Built) {
	defer func() { _ = recover() }()
	built.Sys.Shutdown()
}
