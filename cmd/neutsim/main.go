// Command neutsim runs the paper's Figure 1 scenario on the emulated
// Internet and narrates what happens: which packets the discriminatory
// ISP sees, what its classifier catches, and whether the targeted
// customer's traffic survives.
//
// With -hosts it instead runs the observed metro scenario: a fan-out
// topology (supportive ISP + discriminatory transit + N customer hosts,
// built by netem.BuildFanout) with the stateless neutralizer at the
// border, reporting engine throughput alongside the scenario verdicts.
// -trace records flows through the flight recorder (-traceout writes
// them as Perfetto-loadable JSON) and -metrics serves the live
// observability surface while it runs.
//
// The registered experiments, the scenario experiments E6-E10 and E13
// among them, run from neutbench (`neutbench -exp ID [-reduced]`),
// which also enforces their determinism contract.
//
// -seed threads one seed through every RNG in the run — simulator,
// policies, and end-host identity generation — so any scenario replays
// bit-identically. -simworkers picks how many threads execute the
// sharded metro engine; by the engine's determinism contract it changes
// wall-clock time, never results.
//
// Usage:
//
//	neutsim                       # plain vs neutralized, summary
//	neutsim -neutralize=false     # only the plain phase
//	neutsim -packets 50 -trace all  # per-packet trace of the AT&T segment
//	neutsim -hosts 10000 -duration 2s -seed 7   # metro-scale run
//	neutsim -hosts 1000 -trace all -traceout t.json  # metro + Perfetto trace
//	neutsim -hosts 1000 -trace 0.01 -metrics :0      # sampled flows on /trace.json
//	neutsim -hosts 1000 -simworkers 2           # metro on 2 workers
//	neutsim -hosts 1000 -metrics :0             # metro + /metrics, /stream, pprof
package main

import (
	"flag"
	"fmt"
	"log"
	mathrand "math/rand"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"netneutral"
	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/eval"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

var (
	annAddr  = netip.MustParseAddr("172.16.1.10")
	attAddr  = netip.MustParseAddr("172.16.0.1")
	anyAddr  = netip.MustParseAddr("10.200.0.1")
	googAddr = netip.MustParseAddr("10.10.0.5")
	custNet  = netip.MustParsePrefix("10.10.0.0/16")
	start    = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
)

func main() {
	packets := flag.Int("packets", 20, "data packets to attempt")
	neutralize := flag.Bool("neutralize", true, "also run the neutralized phase")
	trace := flag.String("trace", "", "flow tracing spec: \"all\" records every flow, a fraction in (0,1] samples that share of flows deterministically, 0xHEX tags one flow hash, SRC-DST[/PROTO] tags one address pair; in the Figure-1 scenario any non-empty value prints each packet crossing the discriminatory ISP")
	traceOut := flag.String("traceout", "", "write the metro run's traced spans as Chrome trace-event JSON (load in Perfetto or chrome://tracing) to this file")
	seed := flag.Int64("seed", 1, "seed threaded to every RNG (simulator, policies, jitter, identities)")
	hosts := flag.Int("hosts", 0, "run the metro-scale scenario with this many customer hosts (0 = Figure-1 narration)")
	simWorkers := flag.Int("simworkers", 1, "threads executing the sharded metro engine (results are identical at any value)")
	duration := flag.Duration("duration", 2*time.Second, "simulated traffic duration for the metro scenario")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /metrics.json, /stream, /flight.json and /debug/pprof on this address during the metro run (\":0\" picks a port; bound address is printed)")
	metricsHold := flag.Duration("metricshold", 5*time.Second, "keep the -metrics server up this long after the run so scrapers can read the final state")
	flag.Parse()

	if *hosts > 0 {
		runMetro(*hosts, *seed, *duration, *simWorkers, *metricsAddr, *metricsHold, *trace, *traceOut)
		return
	}
	if *metricsAddr != "" {
		log.Fatal("neutsim: -metrics requires the metro scenario (-hosts N)")
	}
	if *traceOut != "" {
		log.Fatal("neutsim: -traceout requires the metro scenario (-hosts N)")
	}

	fmt.Println("== phase 1: plain addressing, ISP targets the customer ==")
	delivered, hits := runPlain(*packets, *trace != "", *seed)
	fmt.Printf("delivered %d/%d; classifier hits %d — deterministic harm\n\n", delivered, *packets, hits)

	if !*neutralize {
		return
	}
	fmt.Println("== phase 2: neutralized, same classifier ==")
	delivered2, hits2, sawCustomer := runNeutralized(*packets, *trace != "", *seed+1)
	fmt.Printf("delivered %d/%d; classifier hits %d; ISP saw customer address: %v\n",
		delivered2, *packets, hits2, sawCustomer)
	fmt.Println("the ISP can degrade the supportive ISP's traffic as a whole, but cannot single out the customer")
}

// runMetro drives the metro-scale fan-out scenario and narrates the
// engine-level numbers. With metricsAddr set it mounts the full export
// surface on the run's registry: a Recorder publishing a merged
// snapshot at every epoch barrier (so mid-run scrapes are
// barrier-consistent), an NDJSON streamer, a FlightRecorder, and pprof.
// A non-empty traceSpec sizes the flight recorder from the flowspec
// (independent of -metrics); traceOut then writes the assembled spans
// as Chrome trace-event JSON after the run.
func runMetro(hosts int, seed int64, duration time.Duration, workers int, metricsAddr string, hold time.Duration, traceSpec, traceOut string) {
	fmt.Printf("== metro scale: %d customers behind one neutralizer domain, %d sim worker(s) ==\n", hosts, workers)
	cfg := eval.MetroConfig{Hosts: hosts, Seed: seed, Duration: duration}
	var fr *obs.FlightRecorder
	if traceSpec != "" {
		fcfg, tags, err := parseFlowSpec(traceSpec)
		if err != nil {
			log.Fatal(err)
		}
		fr = obs.NewFlightRecorder(fcfg)
		for _, t := range tags {
			fr.Tag(t)
		}
	}
	var ln net.Listener
	if metricsAddr != "" {
		var err error
		if ln, err = net.Listen("tcp", metricsAddr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics listening on http://%s/metrics\n", ln.Addr())
	}
	if fr != nil || ln != nil {
		cfg.Attach = func(sim *netem.Simulator) {
			if fr == nil {
				fr = obs.NewFlightRecorder(obs.FlightConfig{})
			}
			fr.Register(sim.Metrics())
			sim.AttachFlightRecorder(fr)
			if ln == nil {
				return
			}
			rec := obs.NewRecorder(sim.Metrics(), obs.RecorderConfig{
				RingSize: 512, Interval: time.Millisecond,
			})
			rec.Register()
			stream := obs.NewStreamer()
			stream.Register(sim.Metrics())
			rec.SetStreamer(stream)
			sim.OnBarrier(func(now time.Time) { rec.Tick(now.UnixNano()) })
			go func() {
				_ = http.Serve(ln, obs.NewHandler(obs.HandlerConfig{
					Source: rec, Streamer: stream, Flight: fr,
				}))
			}()
		}
	}
	st, err := eval.RunMetro(cfg, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology        %d hosts (%d shards) built in %v\n", st.Hosts, st.Shards, st.BuildTime.Round(time.Millisecond))
	fmt.Printf("traffic         %d neutralized packets over %v simulated\n", st.Sent, duration)
	fmt.Printf("delivered       %d/%d (dropped %d)\n", st.Delivered, st.Sent, st.Dropped)
	fmt.Printf("classifier hits %d — the transit ISP cannot single out a customer\n", st.ClassifierHits)
	fmt.Printf("engine          %d sim events in %v wall: %.0f events/sec, %.0f fwd pps, %.0f delivered pps\n",
		st.SimEvents, st.RunTime.Round(time.Millisecond), st.EventsPerSec, st.ForwardPps, st.DeliveredPps)
	fmt.Printf("packet pool     %d buffers backed %d checkouts\n", st.PoolAllocated, st.PoolGets)
	if traceOut != "" {
		if fr == nil {
			log.Fatal("neutsim: -traceout requires -trace")
		}
		out, err := os.Create(traceOut)
		if err != nil {
			log.Fatal(err)
		}
		spans := obs.AssembleSpans(fr.Events())
		if err := obs.WriteChromeTrace(out, spans); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace           %d flows, %d retained events written to %s (Perfetto-loadable)\n",
			len(spans), fr.Sampled()-fr.Evicted(), traceOut)
	}
	if metricsAddr != "" && hold > 0 {
		fmt.Printf("metrics holding for %v (final state scrapeable)\n", hold)
		time.Sleep(hold)
	}
}

// parseFlowSpec interprets the -trace flowspec for the metro scenario:
//
//	all              record every event of every flow
//	0.25             flow-keyed sampling: record all events of that
//	                 deterministic fraction of flows (flow < f*2^64)
//	0xDEADBEEF       tag one flow by its 64-bit flow hash
//	10.0.0.1-10.0.1.5[/17]  tag the flow between two addresses
//	                 (IP protocol defaults to UDP)
//
// Tagged and fraction-selected flows are recorded in full, on top of
// the recorder's default 1-in-64 head sampling; the selection is a pure
// function of flow identity, so the traced set replays bit-identically
// at any -simworkers.
func parseFlowSpec(spec string) (obs.FlightConfig, []uint64, error) {
	// Tracing rings are sized generously: the spec asks for specific
	// flows end to end, so give them room before eviction clips spans.
	cfg := obs.FlightConfig{RingSize: 1 << 14}
	bad := fmt.Errorf("neutsim: -trace %q: want \"all\", a fraction in (0,1], 0xHEX, or SRC-DST[/PROTO]", spec)
	frac, fracErr := strconv.ParseFloat(spec, 64)
	switch {
	case spec == "all":
		cfg.SampleFlows = 1
		return cfg, nil, nil
	case strings.HasPrefix(spec, "0x") || strings.HasPrefix(spec, "0X"):
		id, err := strconv.ParseUint(spec[2:], 16, 64)
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad flow hash: %v", spec, err)
		}
		return cfg, []uint64{id}, nil
	case fracErr == nil:
		// NaN fails every comparison: test membership, not exclusion.
		if !(frac > 0 && frac <= 1) {
			return cfg, nil, bad
		}
		cfg.SampleFlows = frac
		return cfg, nil, nil
	case strings.Contains(spec, "-"):
		pair, protoStr, hasProto := strings.Cut(spec, "/")
		proto := uint64(wire.ProtoUDP)
		if hasProto {
			var err error
			if proto, err = strconv.ParseUint(protoStr, 10, 8); err != nil {
				return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad protocol: %v", spec, err)
			}
		}
		srcStr, dstStr, _ := strings.Cut(pair, "-")
		src, err := netip.ParseAddr(srcStr)
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad source: %v", spec, err)
		}
		dst, err := netip.ParseAddr(dstStr)
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: bad destination: %v", spec, err)
		}
		key, err := netem.FlowKeyFrom(src, dst, uint8(proto))
		if err != nil {
			return cfg, nil, fmt.Errorf("neutsim: -trace %q: %v", spec, err)
		}
		return cfg, []uint64{netem.FlowKeyHash(key)}, nil
	default:
		return cfg, nil, bad
	}
}

func buildWorld(seed int64) (*netem.Simulator, *netem.Node, *netem.Node, *netem.Node, *netem.Node, *core.Neutralizer) {
	sim := netem.NewSimulator(start, seed)
	ann := sim.MustAddNode("ann", "att", annAddr)
	att := sim.MustAddNode("att-core", "att", attAddr)
	border := sim.MustAddNode("cogent-border", "cogent")
	goog := sim.MustAddNode("google", "cogent", googAddr)
	sim.Connect(ann, att, netem.LinkConfig{Delay: 2 * time.Millisecond})
	sim.Connect(att, border, netem.LinkConfig{Delay: 8 * time.Millisecond})
	sim.Connect(border, goog, netem.LinkConfig{Delay: 2 * time.Millisecond})
	sim.AddAnycast(anyAddr, border)
	sim.BuildRoutes()

	neut, err := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
		Schedule:   netneutral.NewKeySchedule(aesutil.Key{7}, start, time.Hour),
		Anycast:    anyAddr,
		IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
		Clock:      sim.Now,
		Rand:       mathrand.New(mathrand.NewSource(seed + 9)),
	})
	if err != nil {
		log.Fatal(err)
	}
	border.SetHandler(func(_ time.Time, pkt []byte) {
		outs, err := neut.Process(pkt)
		if err != nil {
			return
		}
		for _, o := range outs {
			_ = border.Send(o.Pkt)
		}
	})
	return sim, ann, att, border, goog, neut
}

func attachTrace(att *netem.Node, trace bool) {
	if !trace {
		return
	}
	att.AddTransitHook(func(now time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		src, dst, err := wire.IPv4Addrs(pkt)
		if err != nil {
			return netem.Deliver
		}
		proto, _ := wire.IPv4Proto(pkt)
		kind := fmt.Sprintf("proto=%d", proto)
		if proto == wire.ProtoShim {
			if t, ok := shim.PeekType(pkt[wire.IPv4HeaderLen:]); ok {
				kind = "shim/" + t.String()
			}
		}
		fmt.Printf("  [AT&T sees] %v -> %v  %s  %dB\n", src, dst, kind, len(pkt))
		return netem.Deliver
	})
}

func runPlain(packets int, trace bool, seed int64) (delivered int, hits uint64) {
	sim, ann, att, _, goog, _ := buildWorld(seed)
	attachTrace(att, trace)
	policy := isp.NewPolicy(nil, isp.Rule{
		Name: "target-google", Match: isp.MatchDstAddr(googAddr), Action: isp.Action{DropProb: 1},
	})
	att.AddTransitHook(policy.Hook())
	goog.SetHandler(func(time.Time, []byte) { delivered++ })

	payload := []byte("GET /")
	for i := 0; i < packets; i++ {
		sim.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			buf := wire.NewSerializeBuffer(28, len(payload))
			buf.PushPayload(payload)
			_ = wire.SerializeLayers(buf,
				&wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, Src: annAddr, Dst: googAddr},
				&wire.UDP{SrcPort: 4000, DstPort: 80},
			)
			_ = ann.Send(buf.Bytes())
		})
	}
	sim.Run()
	return delivered, policy.Hits("target-google")
}

func runNeutralized(packets int, trace bool, seed int64) (delivered int, hits uint64, sawCustomer bool) {
	sim, ann, att, _, goog, _ := buildWorld(seed)
	attachTrace(att, trace)
	policy := isp.NewPolicy(nil, isp.Rule{
		Name: "target-google", Match: isp.MatchDstAddr(googAddr), Action: isp.Action{DropProb: 1},
	})
	eav := isp.NewEavesdropper()
	att.AddTransitHook(eav.Hook())
	att.AddTransitHook(policy.Hook())

	mkHost := func(node *netem.Node, s int64) *endhost.Host {
		// Identities derive from the run seed too, so a -seed run
		// replays bit-identically (key material included).
		id, err := e2e.NewIdentity(mathrand.New(mathrand.NewSource(s)), 0)
		if err != nil {
			log.Fatal(err)
		}
		h, err := endhost.NewHost(endhost.Config{
			Addr:      node.Addr(),
			Transport: func(pkt []byte) error { return node.Send(pkt) },
			Identity:  id,
			Clock:     sim.Now,
			Rand:      mathrand.New(mathrand.NewSource(s)),
		})
		if err != nil {
			log.Fatal(err)
		}
		node.SetHandler(h.HandlePacket)
		return h
	}
	googleHost := mkHost(goog, seed+21)
	annHost := mkHost(ann, seed+22)
	googleHost.SetOnData(func(netip.Addr, []byte) { delivered++ })

	if err := annHost.Setup(anyAddr); err != nil {
		log.Fatal(err)
	}
	sim.RunFor(time.Second)
	if !annHost.HasConduit(anyAddr) {
		log.Fatal("neutsim: key setup failed")
	}
	if err := annHost.Connect(anyAddr, googAddr, googleHost.Identity()); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < packets; i++ {
		sim.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			_ = annHost.Send(googAddr, []byte("GET /"))
		})
	}
	sim.RunFor(2 * time.Second)
	return delivered, policy.Hits("target-google"), eav.SawAddr(googAddr)
}
