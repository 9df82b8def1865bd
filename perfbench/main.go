// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the simulator's public entry points (runner.Run,
// runner.Sweep, and the rtossimd server behind httptest with
// internal/client), checks every operation's output, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Untraced mode (-trace 0) measures the end-to-end metrics. Traced mode
// (-trace 1) replays every workload once with spans around each layer call
// made from this package and prints the per-layer metrics; the spans are
// written to .bench_build/perfbench/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's parameters.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Nproc is the host's CPU count: every client, worker and shard count
	// the benchmark uses equals it.
	Nproc int
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	rejected  int // failed operations that were refused (503)
	// detail holds the sample summaries and extra figures printed on the
	// detail line (not part of the gated result).
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// sample records a timing's distribution on the detail line and reports its
// median as the metric.
func (o *outcome) sample(name, unit string, xs []float64) {
	s := summarize(xs)
	o.detail[name] = s
	o.set(name, unit, s.Median)
}

// wallClock records the wall-clock figures of a run on the detail line:
// per-operation times, throughput, and the hypervisor steal time that fell
// inside the measured operations (see README.md for why they are not
// gated).
func (o *outcome) wallClock(opMS []float64, opsPerSec float64, steal, busy time.Duration) {
	o.detail["op_ms"] = summarize(opMS)
	o.detail["ops_per_s"] = opsPerSec
	o.detail["steal_share"] = steal.Seconds() / max(1e-9, busy.Seconds())
}

// endToEndUnits lists the end-to-end metrics every untraced workload run
// reports, with their units.
var endToEndUnits = map[string]string{"user_cpu_ms": "ms", "alloc_mb": "MiB", "peak_rss_mb": "MiB", "setup_s": "s"}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config, *checker) (*outcome, error){
	"soc_long":   func(c config, ck *checker) (*outcome, error) { return runSoC(c, ck, false) },
	"soc_shards": func(c config, ck *checker) (*outcome, error) { return runSoC(c, ck, true) },
	"sweep_wide": runSweep,
	"daemon_mix": runDaemon,
}

func main() {
	var cfg config
	var trace int
	var writePins string
	flag.StringVar(&cfg.Workload, "workload", "", "workload: soc_long, soc_shards, sweep_wide or daemon_mix")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "generator seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "seconds of measurement")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&writePins, "write-pins", "", "regenerate the pinned statistics file at this path and exit")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Nproc = runtime.NumCPU()

	if writePins != "" {
		if err := writePinFile(writePins, cfg.Nproc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed N -seconds S -trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	ck := &checker{}
	var out *outcome
	var err error
	if cfg.Trace {
		out, err = runTraced(cfg, ck)
	} else {
		out, err = run(cfg, ck)
	}
	if err == nil && !cfg.Trace {
		err = checkUnits(out, endToEndUnits)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.detail["fail_ratio"] = float64(out.failed) / float64(max(1, out.attempted))
	out.detail["rejected"] = out.rejected
	out.detail["host"] = fingerprint(cfg)
	out.detail["checks_failed"] = ck.errs
	for _, e := range ck.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	detail, err := json.Marshal(out.detail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("detail %s %s\n", cfg.Workload, detail)
	last, err := json.Marshal(result{Correct: len(ck.errs) == 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// checkUnits fails unless out reports exactly the declared metrics, each
// with its declared unit.
func checkUnits(out *outcome, units map[string]string) error {
	for name, unit := range units {
		if m, ok := out.metrics[name]; !ok || m.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", name, unit)
		}
	}
	if len(out.metrics) != len(units) {
		return fmt.Errorf("reported %d metrics, declared %d", len(out.metrics), len(units))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checker collects output-check failures; any failure makes the result
// incorrect.
type checker struct{ errs []string }

func (c *checker) fail(format string, args ...any) {
	if len(c.errs) < 50 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check records a failure when ok is false and reports ok.
func (c *checker) check(ok bool, format string, args ...any) bool {
	if !ok {
		c.fail(format, args...)
	}
	return ok
}
