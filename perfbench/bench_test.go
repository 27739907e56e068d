package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

func tinyConfig() config { return config{seed: 7, seconds: 0.3, tiny: true, setups: 2} }

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile keeps the metric catalog, the
// workloads and BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		declared["e2e "+m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		declared["layer "+m.Name] = m.Unit
	}
	for _, m := range catalog {
		key := "e2e " + m.name
		if m.layer {
			key = "layer " + m.name
		}
		unit, ok := declared[key]
		if !ok {
			t.Errorf("catalog metric %s missing from BENCHMARK.json", key)
			continue
		}
		if unit != m.unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the catalog", key, unit, m.unit)
		}
		delete(declared, key)
		for _, w := range m.on {
			if workloads[w] == nil {
				t.Errorf("%s names unknown workload %s", key, w)
			}
		}
	}
	for key := range declared {
		t.Errorf("BENCHMARK.json declares %s, which no workload reports", key)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	sort.Strings(names)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", n)
		}
	}
}

// mustBePositive names metrics that a correct run of any size can only
// report above zero, wherever they are measured: a zero means a counter
// or wrapper the metric reads has come unplugged.
var mustBePositive = []string{
	"netem.events", "netem.epochs", "netem.events_per_pkt",
	"netem.self_ns_per_event", "netem.epoch_wall_p50_us",
	"core.pkts", "core.data_ns_per_pkt", "core.return_ns_per_pkt", "core.busy_share",
	"hooks.calls", "hooks.ns_per_call",
	"trafficgen.sends", "trafficgen.ns_per_send",
	"simnet.wakes_per_req", "simnet.steps_per_req",
	"trace.overhead_ratio",
	"throughput_per_s", "op_p50_ms", "op_p99_ms", "setup_s", "heap_mb",
}

// TestTinyRunsReportEveryMetric runs every workload at test size in both
// modes: each must pass its own checks and print exactly the metrics of
// its mode, with units, in the result-line schema. Per-layer metrics of
// layers the workload does not run must read 0.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, name := range []string{"backbone", "dataplane"} {
		for _, traced := range []bool{false, true} {
			res, err := runBenchmark(io.Discard, name, tinyConfig(), traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range catalog {
				got, ok := res.Metrics[m.name]
				if want := m.layer == traced; ok != want {
					t.Errorf("%s traced=%v: metric %s reported=%v, want %v", name, traced, m.name, ok, want)
				} else if ok && got.Unit != m.unit {
					t.Errorf("%s: %s unit %q, want %q", name, m.name, got.Unit, m.unit)
				}
				measured := contains(m.on, name)
				if ok && measured && contains(mustBePositive, m.name) && got.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m.name, got.Value)
				}
				if ok && !measured && got.Value != 0 {
					t.Errorf("%s: %s = %v from a layer it does not run, want 0", name, m.name, got.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil ||
				keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line keys: %s", line)
			}
		}
	}
}

// TestDropHookTripsBackboneCheck injects a transit hook at the core that
// drops every 50th packet: the run must fail its delivery check and
// report a positive fail_ratio.
func TestDropHookTripsBackboneCheck(t *testing.T) {
	cfg := tinyConfig()
	cfg.faultDropEvery = 50
	res, err := runBenchmark(io.Discard, "backbone", cfg, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("dropping hook went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if fr := res.Metrics["fail_ratio"].Value; fr <= 0 {
		t.Errorf("fail_ratio = %v with a dropping hook", fr)
	}
}

// TestCorruptPacketTripsDataplaneCheck corrupts one data packet per batch.
func TestCorruptPacketTripsDataplaneCheck(t *testing.T) {
	cfg := tinyConfig()
	cfg.faultCorrupt = true
	res, err := runBenchmark(io.Discard, "dataplane", cfg, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted packet went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if fr := res.Metrics["fail_ratio"].Value; fr <= 0 {
		t.Errorf("fail_ratio = %v with a corrupted packet per batch", fr)
	}
}

// TestBackboneFingerprintWorkerInvariant: the simulated outcome is the
// same at one worker and at one per CPU (at least two).
func TestBackboneFingerprintWorkerInvariant(t *testing.T) {
	var prints []string
	for _, workers := range []int{1, max(2, runtime.NumCPU())} {
		cfg := tinyConfig()
		cfg.workers = workers
		res, err := runBackbone(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 {
			t.Fatalf("workers=%d: %v", workers, res.problems)
		}
		prints = append(prints, res.fingerprint)
	}
	if prints[0] != prints[1] {
		t.Errorf("fingerprint differs across worker counts:\n%s\n%s", prints[0], prints[1])
	}
}

// TestTraceFile checks the traced pass's Chrome trace: op spans are
// present, and every parent a span names was itself recorded.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := runBenchmark(io.Discard, "backbone", tinyConfig(), true, dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace-backbone-seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	ids := map[float64]bool{}
	names := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			ids[ev.Args["id"].(float64)] = true
			names[ev.Name]++
		}
	}
	for _, want := range []string{"backbone.chunk", "netem.RunFor", "core.border", "hooks.transit", "trafficgen.send"} {
		if names[want] == 0 {
			t.Errorf("no %s spans in the trace (have %v)", want, names)
		}
	}
	for _, ev := range tf.TraceEvents {
		if p, _ := ev.Args["parent"].(float64); ev.Ph == "X" && p != 0 && !ids[p] {
			t.Errorf("span %s names unrecorded parent %v", ev.Name, p)
			break
		}
	}
}
