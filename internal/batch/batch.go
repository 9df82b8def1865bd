// Package batch runs parameter sweeps: many independent simulations of one
// base scenario across the cross-product of configuration axes (RTOS engine,
// scheduling policy, processor speed, overhead sets, fault seeds).
//
// Each simulation owns a private kernel and is internally single-threaded, so
// the sweep parallelizes perfectly across a worker pool of goroutines — this
// is the design-space-exploration workflow of the paper's conclusion ("the
// model allows to easily test different configurations: processor change,
// scheduling algorithm, ...") executed at batch scale. Results are ordered by
// variant index regardless of worker interleaving, so a parallel sweep is
// byte-identical to a serial one.
package batch

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Spec describes a sweep: the base scenario and the axes to cross. An empty
// axis contributes a single "keep the scenario's value" element, so the
// variant count is the product of max(1, len(axis)) over all axes.
type Spec struct {
	// Scenario is the path of the base scenario JSON. The library itself
	// works on raw bytes (see Sweep); the path is resolved by the caller.
	Scenario string `json:"scenario"`
	// Horizon overrides the base scenario's horizon for every run (optional).
	Horizon scenario.Duration `json:"horizon"`
	// Engines lists RTOS engine overrides: "procedural" or "threaded".
	Engines []string `json:"engines"`
	// TaskEngines lists values for every software task's engine field:
	// "goroutine" or "continuation". The field is a compatibility input
	// that selects nothing (every body runs on the task driver), so the
	// axis labels variants without changing their simulation; it is kept so
	// existing specs and their variant labels stay valid.
	TaskEngines []string `json:"taskEngines"`
	// Policies lists scheduling-policy overrides: "priority", "fifo", "rr"
	// or "edf".
	Policies []string `json:"policies"`
	// Quantum is the round-robin time slice used when a Policies entry is
	// "rr"; required in that case.
	Quantum scenario.Duration `json:"quantum"`
	// Speeds lists processor speed-factor overrides (applied to every
	// processor).
	Speeds []float64 `json:"speeds"`
	// Overheads lists RTOS overhead sets (applied to every processor).
	Overheads []scenario.OverheadSpec `json:"overheads"`
	// Cores lists core-count overrides (applied to every processor). Tasks
	// with a non-zero affinity must fit the smallest swept count.
	Cores []int `json:"cores"`
	// Domains lists scheduling-domain overrides: "partitioned" or "global"
	// (applied to every processor).
	Domains []string `json:"domains"`
	// Seeds lists fault-seed overrides (applied to every fault definition).
	Seeds []int64 `json:"seeds"`
	// Workers bounds the worker pool (0: GOMAXPROCS).
	Workers int `json:"workers"`
}

// ParseSpec decodes a sweep description, rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	return &s, nil
}

// Variant is one point of the sweep cross-product. Zero/empty override
// fields keep the base scenario's value; OverheadIdx is -1 when no overhead
// set applies.
type Variant struct {
	Index       int
	Engine      string
	TaskEngine  string
	Policy      string
	Quantum     sim.Time
	Speed       float64
	OverheadIdx int
	Overheads   *scenario.OverheadSpec
	Cores       int
	Domain      string
	Seed        *int64
}

// Label renders the variant's overrides compactly for reports, e.g.
// "engine=threaded policy=edf speed=2 ov=1 seed=7"; "base" when nothing is
// overridden.
func (v Variant) Label() string {
	var parts []string
	if v.Engine != "" {
		parts = append(parts, "engine="+v.Engine)
	}
	if v.TaskEngine != "" {
		parts = append(parts, "taskengine="+v.TaskEngine)
	}
	if v.Policy != "" {
		parts = append(parts, "policy="+v.Policy)
	}
	if v.Speed != 0 {
		parts = append(parts, fmt.Sprintf("speed=%g", v.Speed))
	}
	if v.OverheadIdx >= 0 {
		parts = append(parts, fmt.Sprintf("ov=%d", v.OverheadIdx))
	}
	if v.Cores != 0 {
		parts = append(parts, fmt.Sprintf("cores=%d", v.Cores))
	}
	if v.Domain != "" {
		parts = append(parts, "domain="+v.Domain)
	}
	if v.Seed != nil {
		parts = append(parts, fmt.Sprintf("seed=%d", *v.Seed))
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, " ")
}

// Expand builds the deterministic cross-product of the spec's axes, nesting
// engines, then task engines, then policies, speeds, overhead sets, core
// counts, domains, and seeds. Variant indices follow that order.
func (s *Spec) Expand() ([]Variant, error) {
	for _, e := range s.Engines {
		if e != "procedural" && e != "threaded" {
			return nil, fmt.Errorf("batch: unknown engine %q (want procedural or threaded)", e)
		}
	}
	for _, e := range s.TaskEngines {
		if e != "goroutine" && e != "continuation" {
			return nil, fmt.Errorf("batch: unknown task engine %q (want goroutine or continuation)", e)
		}
	}
	for _, p := range s.Policies {
		switch p {
		case "priority", "fifo", "edf":
		case "rr":
			if s.Quantum <= 0 {
				return nil, fmt.Errorf("batch: policy %q requires a positive quantum", p)
			}
		default:
			return nil, fmt.Errorf("batch: unknown policy %q (want priority, fifo, rr or edf)", p)
		}
	}
	for _, sp := range s.Speeds {
		if sp <= 0 {
			return nil, fmt.Errorf("batch: speed factor %g must be positive", sp)
		}
	}
	for _, c := range s.Cores {
		if c < 1 {
			return nil, fmt.Errorf("batch: core count %d must be at least 1", c)
		}
	}
	for _, d := range s.Domains {
		if d != "partitioned" && d != "global" {
			return nil, fmt.Errorf("batch: unknown domain %q (want partitioned or global)", d)
		}
	}
	engines := orKeep(s.Engines)
	taskEngines := orKeep(s.TaskEngines)
	policies := orKeep(s.Policies)
	speeds := s.Speeds
	if len(speeds) == 0 {
		speeds = []float64{0}
	}
	nOv := len(s.Overheads)
	if nOv == 0 {
		nOv = 1
	}
	cores := s.Cores
	if len(cores) == 0 {
		cores = []int{0}
	}
	domains := orKeep(s.Domains)
	var variants []Variant
	for _, eng := range engines {
		for _, teng := range taskEngines {
			for _, pol := range policies {
				for _, sp := range speeds {
					for ov := 0; ov < nOv; ov++ {
						for _, nc := range cores {
							for _, dom := range domains {
								v := Variant{
									Engine:      eng,
									TaskEngine:  teng,
									Policy:      pol,
									Quantum:     s.Quantum.Time(),
									Speed:       sp,
									OverheadIdx: -1,
									Cores:       nc,
									Domain:      dom,
								}
								if len(s.Overheads) > 0 {
									spec := s.Overheads[ov]
									v.OverheadIdx = ov
									v.Overheads = &spec
								}
								if len(s.Seeds) == 0 {
									v.Index = len(variants)
									variants = append(variants, v)
									continue
								}
								for _, seed := range s.Seeds {
									seed := seed
									sv := v
									sv.Seed = &seed
									sv.Index = len(variants)
									variants = append(variants, sv)
								}
							}
						}
					}
				}
			}
		}
	}
	return variants, nil
}

// orKeep turns an empty axis into the single keep-base-value element.
func orKeep(axis []string) []string {
	if len(axis) == 0 {
		return []string{""}
	}
	return axis
}

// apply rewrites the freshly parsed scenario for the variant. Each run
// re-parses the base bytes, so mutations never leak between runs.
func (s *Spec) apply(desc *scenario.System, v Variant) {
	if s.Horizon > 0 {
		desc.Horizon = s.Horizon
	}
	for i := range desc.Processors {
		p := &desc.Processors[i]
		if v.Engine != "" {
			p.Engine = v.Engine
		}
		if v.Policy != "" {
			p.Policy = v.Policy
			if v.Policy == "rr" {
				p.Quantum = scenario.Duration(v.Quantum)
			}
		}
		if v.Speed != 0 {
			p.Speed = v.Speed
		}
		if v.Overheads != nil {
			p.Overheads = *v.Overheads
		}
		if v.Cores != 0 {
			p.Cores = v.Cores
		}
		if v.Domain != "" {
			p.Domain = v.Domain
		}
	}
	if v.TaskEngine != "" {
		for i := range desc.Tasks {
			desc.Tasks[i].Engine = v.TaskEngine
		}
	}
	if v.Seed != nil {
		for i := range desc.Faults {
			desc.Faults[i].Seed = *v.Seed
		}
	}
}
