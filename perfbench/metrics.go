package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric. End-to-end metrics come from the
// untraced pass (--trace 0); per-layer metrics from the traced run
// (--trace 1). Every run prints every metric of its mode. A per-layer
// metric of a layer the workload does not run reads 0 there.
// BENCHMARK.json lists the same names and units; the tests keep the two
// in step.
type metricSpec struct {
	name, unit string
	layer      bool
	on         []string // workloads that measure it
}

var (
	bbOnly   = []string{"backbone"}
	dpOnly   = []string{"dataplane"}
	everyWkl = []string{"backbone", "dataplane"}
)

var catalog = []metricSpec{
	// One op is a 25 ms simulated chunk (backbone) or a ProcessBatch call
	// (dataplane); the work it does is packets delivered or packets
	// through the pool.
	{"throughput_per_s", "1/s", false, everyWkl},
	{"op_p50_ms", "ms", false, everyWkl},
	{"op_p99_ms", "ms", false, everyWkl},
	{"setup_s", "s", false, everyWkl},
	{"heap_mb", "MiB", false, everyWkl},

	{"netem.self_ns_per_event", "ns", true, bbOnly},
	{"netem.events_per_pkt", "event/pkt", true, bbOnly},
	{"netem.events", "count", true, bbOnly},
	{"netem.epochs", "count", true, bbOnly},
	{"netem.events_per_epoch", "event/epoch", true, bbOnly},
	{"netem.epoch_wall_p50_us", "us", true, bbOnly},
	{"netem.epoch_wall_p99_us", "us", true, bbOnly},
	{"netem.lookahead_us", "us", true, bbOnly},
	{"netem.pending_events_mean", "count", true, bbOnly},
	{"netem.pool_miss_ratio", "ratio", true, bbOnly},
	{"netem.queue_drops", "count", true, bbOnly},
	{"core.data_ns_per_pkt", "ns", true, dpOnly},
	{"core.return_ns_per_pkt", "ns", true, dpOnly},
	{"core.setup_ns_per_pkt", "ns", true, dpOnly},
	{"core.allocs_per_pkt", "alloc/pkt", true, dpOnly},
	{"core.epoch_cache_hit_ratio", "ratio", true, dpOnly},
	{"core.worker_imbalance", "ratio", true, dpOnly},
	{"core.drop_ratio", "ratio", true, dpOnly},
	{"core.busy_share", "ratio", true, everyWkl},
	{"core.pkts", "count", true, everyWkl},
	{"hooks.calls", "count", true, everyWkl},
	{"hooks.ns_per_call", "ns", true, everyWkl},
	{"hooks.busy_share", "ratio", true, everyWkl},
	{"trafficgen.sends", "count", true, bbOnly},
	{"trafficgen.ns_per_send", "ns", true, bbOnly},
	{"simnet.wakes_per_req", "wake/req", true, dpOnly},
	{"simnet.steps_per_req", "step/req", true, dpOnly},
	{"simnet.spin_share", "ratio", true, dpOnly},
	{"simnet.self_ns_per_wake", "ns", true, dpOnly},
	{"runtime.allocs_per_op", "alloc/op", true, everyWkl},
	{"runtime.gc_cycles", "count", true, everyWkl},
	{"runtime.gc_pause_ms", "ms", true, everyWkl},
	{"trace.overhead_ratio", "ratio", true, everyWkl},
	{"fail_ratio", "ratio", true, everyWkl},
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the catalog entries of one mode from the measured
// values, failing on any gap or stray name — so a run either prints every
// metric it owes or reports why not. Per-layer metrics of layers the
// workload does not run are reported as 0.
func selectMetrics(workload string, layer bool, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric)
	want := make(map[string]bool)
	for _, m := range catalog {
		if m.layer != layer {
			continue
		}
		if !contains(m.on, workload) {
			out[m.name] = metric{Value: 0, Unit: m.unit}
			continue
		}
		want[m.name] = true
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	var stray []string
	for name := range vals {
		if !want[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("unlisted metrics measured: %s", strings.Join(stray, ", "))
	}
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle of xs (mean of the two middle values for an
// even count; xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rateWindows is how many consecutive op groups a run's throughput is
// split into; the reported rate is their median, so a short stall of the
// host moves one window rather than the whole figure.
const rateWindows = 10

// opLog records the measured ops of a pass.
type opLog struct {
	work []float64 // work units per op (packets, requests)
	secs []float64 // wall seconds per op
}

func (l *opLog) add(work float64, d time.Duration) {
	l.work = append(l.work, work)
	l.secs = append(l.secs, d.Seconds())
}

// seconds is the summed op time.
func (l *opLog) seconds() float64 {
	var s float64
	for _, x := range l.secs {
		s += x
	}
	return s
}

// rate is the median over rateWindows consecutive op groups of work per
// second of op time.
func (l *opLog) rate() float64 {
	n := len(l.work)
	if n == 0 {
		return 0
	}
	w := min(rateWindows, n)
	rates := make([]float64, 0, w)
	for g := 0; g < w; g++ {
		var work, secs float64
		for i := g * n / w; i < (g+1)*n/w; i++ {
			work += l.work[i]
			secs += l.secs[i]
		}
		rates = append(rates, ratio(work, secs))
	}
	return median(rates)
}

// p50 returns the median op time in the given unit: the median of the
// per-group medians over rateWindows consecutive op groups.
func (l *opLog) p50(unit time.Duration) float64 { return median(l.groupQuantiles(0.50, unit)) }

// p99 returns the 99th-percentile op time in the given unit: the lowest
// of the per-group p99s over up to rateWindows consecutive op groups,
// each with at least ten ops beyond its p99. On a shared host a worker
// thread descheduled for a few milliseconds delays every op in flight;
// while a neighbour is busy that happens to more than 1% of ops, and a
// group's p99 then measures the neighbour. Tails the program causes
// itself (GC, slow paths, key setup) recur in every group and still set
// the lowest one.
func (l *opLog) p99(unit time.Duration) float64 { return slices.Min(l.groupQuantiles(0.99, unit)) }

// groupQuantiles splits the ops into up to rateWindows consecutive
// groups, each with at least ten ops beyond the q-quantile, and returns
// each group's q-quantile of op time in the given unit.
func (l *opLog) groupQuantiles(q float64, unit time.Duration) []float64 {
	n := len(l.secs)
	w := min(max(int(float64(n)*(1-q)/10), 1), rateWindows)
	qs := make([]float64, 0, w)
	for g := 0; g < w; g++ {
		xs := make([]float64, 0, n/w+1)
		for _, s := range l.secs[g*n/w : (g+1)*n/w] {
			xs = append(xs, s*float64(time.Second)/float64(unit))
		}
		qs = append(qs, quantile(xs, q))
	}
	return qs
}

// warmup is the untimed lead-in of a pass: ops run and are checked, but
// only ops started after it are measured.
func warmup(seconds float64) time.Duration {
	return time.Duration(min(1, seconds/10) * float64(time.Second))
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
