package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"syscall"
	"time"

	"netneutral/internal/obs"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// simStart anchors virtual time and the master-key schedules.
var simStart = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

// rngFor derives an independent input stream from the run seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// buildShim serializes IP(src→dst) | shim | payload.
func buildShim(src, dst netip.Addr, sh *shim.Header, payload []byte) ([]byte, error) {
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+sh.EncodedLen(), len(payload))
	buf.PushPayload(payload)
	if err := sh.SerializeTo(buf); err != nil {
		return nil, err
	}
	ip := &wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoShim, Src: src, Dst: dst}
	if err := ip.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildUDP serializes a plaintext UDP probe.
func buildUDP(src, dst netip.Addr, dport uint16, payload []byte) ([]byte, error) {
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: 40000, DstPort: dport},
	); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// counters is a read of registry families, taken outside timed regions.
// Reading a family the registry does not hold panics: a renamed or
// unregistered family must stop the run, not report zero.
type counters struct{ snap *obs.Snapshot }

func readCounters(reg *obs.Registry) counters { return counters{reg.Snapshot()} }

func (c counters) family(name string) *obs.Metric {
	m := c.snap.Get(name)
	if m == nil {
		panic(fmt.Sprintf("perfbench: registry family %s is not registered", name))
	}
	return m
}

// get returns the named family's merged value.
func (c counters) get(name string) float64 { return c.family(name).Value }

// each returns the values of every family whose name has the prefix, in
// registration order.
func (c counters) each(prefix string) []float64 {
	var out []float64
	for _, m := range c.snap.Metrics {
		if strings.HasPrefix(m.Name, prefix) {
			out = append(out, m.Value)
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("perfbench: no registry family named %s...", prefix))
	}
	return out
}

// hist returns the named histogram's state.
func (c counters) hist(name string) *obs.HistSnap {
	h := c.family(name).Hist
	if h == nil {
		panic(fmt.Sprintf("perfbench: registry family %s is not a histogram", name))
	}
	return h
}

// histDelta is the histogram of observations made between two reads.
func histDelta(before, after *obs.HistSnap) *obs.HistSnap {
	d := &obs.HistSnap{Buckets: make([]uint64, len(after.Buckets))}
	for i := range after.Buckets {
		d.Buckets[i] = after.Buckets[i]
		if before != nil && i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
		d.Count += d.Buckets[i]
	}
	return d
}

// cpuTime is the CPU time all of the process's threads have used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// runtimeLayer fills the runtime.* metrics from two MemStats reads around
// a pass of ops operations.
func runtimeLayer(vals map[string]float64, before, after *runtime.MemStats, ops int) {
	vals["runtime.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), float64(ops))
	vals["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	vals["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}
