package eval

// Observation wiring shared by the experiments. E6/E9 (metro), E8
// (audit) and E13 (backbone) can run with the full observability plane
// attached — an obs.Recorder ticking at every epoch barrier and an
// obs.FlightRecorder head-sampling packet events — and fold what was
// observed into the run's deterministic identity. ObsDigest condenses
// the recorded state (time-series rings, sampled-event set, final
// registry snapshot) into a few words, so the identity sweep can assert
// "observation itself replays bit-identically" without hauling the
// rings around.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/obs"
)

// observation is one run's attached observability plane: the
// epoch-barrier recorder and the packet flight recorder, both living on
// the simulator's own registry.
type observation struct {
	rec *obs.Recorder
	fr  *obs.FlightRecorder
}

// attachObservation puts the full observability plane on sim before a
// run. The recorder samples every non-volatile family at epoch barriers,
// at most once per every of virtual time, into 512-point rings; the
// flight recorder samples 1-in-64 packet events per shard stripe. Both
// are pure observers: attaching them must not change any run outcome,
// and what they record is itself bit-identical at every worker count.
func attachObservation(sim *netem.Simulator, every time.Duration) *observation {
	rec := obs.NewRecorder(sim.Metrics(), obs.RecorderConfig{
		RingSize: 512, Interval: every,
	})
	rec.Register()
	sim.OnBarrier(func(now time.Time) { rec.Tick(now.UnixNano()) })
	fr := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 64, RingSize: 4096})
	fr.Register(sim.Metrics())
	sim.AttachFlightRecorder(fr)
	return &observation{rec: rec, fr: fr}
}

// attachTracing puts a deployment-shaped tracing recorder on sim: the
// deterministic flow sampler records every event of 1% of flows (the
// end-to-end journeys the span assembler consumes), and the remaining
// flows fall back to 1-in-64 head sampling. This is the always-on
// tracing posture the trace_overhead_pct benchmark check prices against
// the untraced metro run.
func attachTracing(sim *netem.Simulator) *obs.FlightRecorder {
	fr := obs.NewFlightRecorder(obs.FlightConfig{
		SampleEvery: 64, RingSize: 4096, SampleFlows: 0.01,
	})
	fr.Register(sim.Metrics())
	sim.AttachFlightRecorder(fr)
	return fr
}

// ObsDigest condenses what a run's observers recorded. Two observed
// runs of the same seed must produce equal digests at any worker count;
// every field is part of the run's identity encoding.
type ObsDigest struct {
	// RecorderTicks counts barrier samples taken.
	RecorderTicks uint64
	// SeriesPoints totals retained ring points across all series.
	SeriesPoints uint64
	// RingsHash fingerprints every series name and (time, value) point.
	RingsHash uint64
	// FlightSeen and FlightSampled count packet events offered to and
	// retained by the flight recorder.
	FlightSeen, FlightSampled uint64
	// FlightHash fingerprints the merged sampled-event set in the
	// engine's canonical (time, shard, seq) order.
	FlightHash uint64
	// FinalHash fingerprints the final non-volatile registry snapshot:
	// every family name and merged value the run ended with.
	FinalHash uint64
}

// digest reduces the observation to its digest. Call at quiescence
// (after the run; for E8, after verdicts are counted, so the verdict
// families are covered by FinalHash).
func (o *observation) digest() ObsDigest {
	d := ObsDigest{
		RecorderTicks: o.rec.Ticks(),
		FlightSeen:    o.fr.Seen(),
	}

	h := newFNV()
	for _, s := range o.rec.Series() {
		h.str(s.Name)
		times, vals := s.Points()
		d.SeriesPoints += uint64(len(times))
		for i := range times {
			h.u64(uint64(times[i]))
			h.u64(math.Float64bits(vals[i]))
		}
	}
	d.RingsHash = h.sum()

	h = newFNV()
	evs := o.fr.Events()
	d.FlightSampled = uint64(len(evs))
	for _, e := range evs {
		h.u64(uint64(e.TimeNanos))
		h.u64(e.Flow)
		h.u64(e.Journey)
		h.u64(e.Seq)
		h.u64(uint64(uint32(e.Node))<<32 | uint64(uint32(e.Shard)))
		h.u64(uint64(uint32(e.Size))<<8 | uint64(e.Kind))
		// Span coverage: the per-hop attribution components and their
		// cause must replay bit-identically too.
		h.u64(uint64(e.QueueNanos))
		h.u64(uint64(e.SerializeNanos))
		h.u64(uint64(e.PropagateNanos))
		h.u64(uint64(e.PolicyNanos))
		h.u64(uint64(e.ProcNanos))
		h.u64(uint64(e.Cause)<<8 | uint64(e.Class))
	}
	d.FlightHash = h.sum()

	h = newFNV()
	for _, m := range o.rec.Registry().Snapshot().Metrics {
		if m.Volatile {
			continue // wall-clock families legitimately differ per run
		}
		h.str(m.Name)
		if m.Hist != nil {
			h.u64(m.Hist.Count)
			h.u64(m.Hist.Sum)
			continue
		}
		h.u64(math.Float64bits(m.Value))
	}
	d.FinalHash = h.sum()
	return d
}

// checkAttribution enforces the span attribution invariant on the
// flight recorder's merged events: every tagged-flow journey that was
// recorded end to end and lies wholly past the ring-eviction horizon
// must have its attributed components (queue, serialize, propagate,
// policy, proc) sum *exactly* — not approximately — to its end-to-end
// virtual delay. tagged == nil checks every flow. At least one journey
// must actually be checked, so the invariant cannot pass vacuously.
func checkAttribution(evs []obs.TraceRec, tagged map[uint64]bool, evicted uint64) error {
	// Eviction discards each stripe's oldest events, which can silently
	// clip a journey's middle hops while leaving its endpoints intact.
	// Only journeys starting at or after the horizon — the latest
	// per-stripe earliest retained timestamp — are provably unclipped.
	var horizon int64
	if evicted > 0 {
		earliest := make(map[int32]int64)
		for i := range evs {
			e := &evs[i]
			if t, ok := earliest[e.Shard]; !ok || e.TimeNanos < t {
				earliest[e.Shard] = e.TimeNanos
			}
		}
		for _, t := range earliest {
			if t > horizon {
				horizon = t
			}
		}
	}
	checked := 0
	for _, sp := range obs.AssembleSpans(evs) {
		if tagged != nil && !tagged[sp.Flow] {
			continue
		}
		for i := range sp.Journeys {
			j := &sp.Journeys[i]
			if !j.Complete() || j.Hops[0].TimeNanos < horizon {
				continue
			}
			if sum, e2e := j.AttrSumNanos(), j.EndToEndNanos(); sum != e2e {
				return fmt.Errorf("attribution invariant: flow %016x journey %d: components sum to %dns, end-to-end delay %dns",
					sp.Flow, j.ID, sum, e2e)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("attribution invariant: no complete tagged journey survived to check (evicted=%d)", evicted)
	}
	return nil
}

// fnv64 is a tiny FNV-1a accumulator behind the digest fingerprints.
type fnv64 uint64

func newFNV() *fnv64 { h := fnv64(14695981039346656037); return &h }

func (h *fnv64) bytes(b []byte) {
	const prime = 1099511628211
	v := uint64(*h)
	for _, c := range b {
		v = (v ^ uint64(c)) * prime
	}
	*h = fnv64(v)
}

// str hashes s with a terminator so adjacent fields cannot alias.
func (h *fnv64) str(s string) {
	h.bytes([]byte(s))
	h.bytes([]byte{0})
}

func (h *fnv64) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.bytes(b[:])
}

func (h *fnv64) sum() uint64 { return uint64(*h) }
