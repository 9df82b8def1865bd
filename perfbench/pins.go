package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"repro/internal/runner"
)

// defaultSeed is the seed whose simulated statistics are pinned.
const defaultSeed = 1

// pinnedJSON holds the default seed's simulated outcomes: the soc scenario,
// every sweep_wide variant, and each daemon_mix hot-set scenario. Regenerate
// it with -write-pins after a change that is meant to alter simulated
// behaviour (and say so in the change).
//
//go:embed pinned_seed1.json
var pinnedJSON []byte

// checkPinned compares got with the pinned value under key when the run
// uses the default seed; other seeds have no pins.
func checkPinned(cfg config, ck *checker, key string, got any) {
	if cfg.Seed != defaultSeed {
		return
	}
	var pins map[string]json.RawMessage
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		ck.fail("pinned statistics: %v", err)
		return
	}
	raw, ok := pins[key]
	if !ck.check(ok, "pinned statistics: no entry %q", key) {
		return
	}
	want := reflect.New(reflect.TypeOf(got))
	if err := json.Unmarshal(raw, want.Interface()); err != nil {
		ck.fail("pinned statistics %q: %v", key, err)
		return
	}
	if so, ok := got.(simOutcome); ok {
		for _, d := range diffOutcomes(want.Elem().Interface().(simOutcome), so, true) {
			ck.fail("%s differs from pinned: %s", key, d)
		}
		return
	}
	ck.check(reflect.DeepEqual(want.Elem().Interface(), got), "%s differs from the pinned statistics", key)
}

// pinnedOutcomes computes everything the pin file holds for nproc.
func pinnedOutcomes(nproc int) (map[string]any, error) {
	cfg := config{Seed: defaultSeed, Nproc: nproc}
	pins := map[string]any{}

	h, err := runHand(genSoC(defaultSeed), nil, 0, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	stats, _ := h.compose(nil, 0, 0)
	pins["soc"] = h.outcome(stats)

	base, spec, _, err := sweepInputs(cfg)
	if err != nil {
		return nil, err
	}
	sw, err := runner.Sweep(spec, base, runner.SweepOptions{Workers: nproc})
	if err != nil {
		return nil, err
	}
	pins["sweep"] = variantOutcomes(sw.Results)

	for i := 0; i < daemonHotSet; i++ {
		h, err := runHand(genDaemonHot(defaultSeed, i), nil, 0, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		stats, _ := h.compose(nil, 0, 0)
		pins[fmt.Sprintf("daemon_hot_%d", i)] = h.outcome(stats)
	}
	return pins, nil
}

func writePinFile(path string, nproc int) error {
	pins, err := pinnedOutcomes(nproc)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
