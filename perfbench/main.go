// Command perfbench is the repository's benchmark of record. It builds one
// of two seeded workloads from the public APIs of netem, core, isp/dpi,
// trafficgen, simnet and endhost, runs it for a fixed wall-clock budget,
// checks that its outputs are correct, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the workload's end-to-end figures, from
// an untraced pass. With -trace 1 the budget is split between an
// untraced and a traced pass; the metrics are the per-layer figures of
// the traced pass, and both passes must reproduce the same outcome
// fingerprint. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is what one pass of a workload needs.
type config struct {
	seed    int64
	seconds float64 // wall-clock measuring budget of the pass
	workers int     // engine and pool workers (default: GOMAXPROCS)
	tiny    bool    // test-sized inputs
	setups  int     // backbone: set-ups per pass (setup_s is their median)

	// Fault injection, for the benchmark's own tests.
	faultDropEvery int  // backbone: a core hook drops every n-th packet
	faultCorrupt   bool // dataplane: one data packet per batch is corrupted
}

// passResult is the outcome of one pass.
type passResult struct {
	attempted, failed int64
	problems          []string // correctness violations (at most a few kept)
	fingerprint       string
	e2e               map[string]float64
	layer             map[string]float64
	throughput        float64 // headline ops/s, for trace.overhead_ratio
	opWall            time.Duration
}

func (p *passResult) problem(format string, args ...any) {
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

type runFunc func(cfg config, tr *tracer) (*passResult, error)

var workloads = map[string]runFunc{
	"backbone":  runBackbone,
	"dataplane": runDataplane,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBenchmark runs one workload in one mode, narrating to w. traceDir,
// when non-empty, receives the traced pass's Chrome trace.
func runBenchmark(w io.Writer, name string, cfg config, traced bool, traceDir string) (*result, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if !traced {
		u, err := run(cfg, nil)
		if err != nil {
			return nil, err
		}
		report(w, name, "untraced", u)
		m, err := selectMetrics(name, false, u.e2e)
		if err != nil {
			return nil, err
		}
		return &result{Correct: len(u.problems) == 0, Attempted: u.attempted, Failed: u.failed, Metrics: m}, nil
	}

	half := cfg
	half.seconds = cfg.seconds / 2
	half.setups = 1
	u, err := run(half, nil)
	if err != nil {
		return nil, err
	}
	report(w, name, "untraced", u)
	tr := newTracer()
	t, err := run(half, tr)
	if err != nil {
		return nil, err
	}
	report(w, name, "traced", t)
	tr.printSummary(w, t.opWall)
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(w, "trace: wrote %s\n", path)
	}

	res := &result{
		Correct:   len(u.problems) == 0 && len(t.problems) == 0,
		Attempted: u.attempted + t.attempted,
		Failed:    u.failed + t.failed,
	}
	if u.fingerprint != t.fingerprint {
		res.Correct = false
		fmt.Fprintf(w, "FAIL: fingerprint differs between untraced and traced passes\n")
	}
	// Per-layer figures the untraced pass measures (allocation counts
	// without the tracer's own work) override the traced ones.
	vals := t.layer
	for n, v := range u.layer {
		vals[n] = v
	}
	vals["trace.overhead_ratio"] = ratio(t.throughput, u.throughput)
	vals["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.Metrics, err = selectMetrics(name, true, vals)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func report(w io.Writer, name, pass string, p *passResult) {
	fmt.Fprintf(w, "%s %s: fingerprint %s\n", name, pass, p.fingerprint)
	fmt.Fprintf(w, "%s %s: attempted=%d failed=%d ops-time=%.3fs\n",
		name, pass, p.attempted, p.failed, p.opWall.Seconds())
	for _, msg := range p.problems {
		fmt.Fprintf(w, "FAIL: %s %s: %s\n", name, pass, msg)
	}
}

func main() {
	name := flag.String("workload", "", "workload: backbone or dataplane")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "wall-clock measuring budget")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced pass")
	out := flag.String("out", "", "directory for the traced pass's Chrome trace JSON (empty: not written)")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	cfg := config{seed: *seed, seconds: *seconds, setups: 5}
	res, err := runBenchmark(os.Stdout, *name, cfg, *traceMode == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
