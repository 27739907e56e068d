package main

// backbone: the continental-scale shape. netem.BuildBackbone stamps
// metros of compact customer hosts behind a transit core; a real
// neutralizer sits on every metro border and an isp address-targeting
// classifier at the core. Each metro's outside user sends neutralized
// flows across the backbone to the next metro's anycast address, plain
// probes cross between customer hosts, and fluid aggregates load every
// border↔edge link. The sharded engine runs with one worker per CPU and
// is advanced in fixed 25 ms simulated chunks; each chunk is one op.
// Traffic is scheduled a segment (1 s simulated) at a time, like the
// fluid load, so a probe flow slower than one packet per chunk still
// sends at its rate.

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

type bbSize struct {
	metros, hostsPerMetro int
	neutPps, crossPps     float64 // per metro, packets per simulated second
	crossFlows            int     // plain probe flows per metro
	fluidBps              float64 // per border↔edge link direction
	checkpoint            int     // chunks run before the fingerprint is taken
}

var (
	bbFull = bbSize{metros: 16, hostsPerMetro: 15625, neutPps: 2000, crossPps: 1000,
		crossFlows: 32, fluidBps: 20e6, checkpoint: 160}
	bbTiny = bbSize{metros: 3, hostsPerMetro: 600, neutPps: 800, crossPps: 100,
		crossFlows: 4, fluidBps: 20e6, checkpoint: 12}
)

const (
	bbChunk         = 25 * time.Millisecond
	bbFluidInterval = 20 * time.Millisecond
	// bbSegment is the traffic and fluid horizon in chunks (1 s
	// simulated, a multiple of the fluid interval): each segment's tick
	// and emission chains retire before the next one starts.
	bbSegment    = 40
	bbTargetRule = "target-customer"
)

// bbSource is one open-loop sender. Each segment it schedules the whole
// packets its rate owes, carrying the fraction to the next segment.
type bbSource struct {
	node      *netem.Node
	pps       float64
	emit      func(seq uint64)
	credit    float64 // packets owed but not yet scheduled
	scheduled int
	emitted   *int // written only on the node's shard, read between chunks
}

type bbWorld struct {
	sim     *netem.Simulator
	bb      *netem.Backbone
	tallies []*netem.DeliveryCount
	policy  *isp.Policy
	sources []bbSource
}

// neutralizerHandler runs the stateless core on the zero-allocation
// scratch path and sends its outputs back into the fabric.
func neutralizerHandler(node *netem.Node, n *core.Neutralizer) netem.Handler {
	s := core.NewScratch()
	return func(_ time.Time, pkt []byte) {
		s.Reset()
		outs, err := n.ProcessScratch(s, pkt)
		if err != nil {
			return // the packet goes undelivered and is counted as failed
		}
		for _, o := range outs {
			_ = node.SendPacket(node.NewPacket(o.Pkt))
		}
	}
}

// setupBackbone builds the world: topology, neutralizers, traffic
// templates, the core classifier and delivery tallies. With a tracer,
// every handler, hook and sender it installs is wrapped.
func setupBackbone(cfg config, size bbSize, tr *tracer) (*bbWorld, error) {
	sim := netem.NewSimulator(simStart, cfg.seed)
	spec := netem.BackboneSpec{
		Metros:          size.metros,
		HostsPerMetro:   size.hostsPerMetro,
		FluidBpsPerEdge: size.fluidBps,
		FluidInterval:   bbFluidInterval,
		HostLink:        netem.LinkConfig{Delay: time.Millisecond},
		EdgeLink:        netem.LinkConfig{Delay: time.Millisecond, RateBps: 100e6, QueueLen: 512},
		TransitLink:     netem.LinkConfig{Delay: time.Millisecond, QueueLen: 512},
		OutsideLink:     netem.LinkConfig{Delay: time.Millisecond},
	}
	bb, err := netem.BuildBackbone(sim, spec)
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(cfg.workers)

	rng := rngFor(cfg.seed, 1)
	var root aesutil.Key
	rng.Read(root[:])
	sched := keys.NewSchedule(root, simStart, time.Hour)
	epoch := sched.EpochAt(sim.Now())
	for _, f := range bb.Metros {
		neut, err := core.New(core.Config{
			Schedule:   sched,
			Anycast:    f.Spec.Anycast,
			IsCustomer: f.CustomerNet.Contains,
			Clock:      f.Border.Now,
		})
		if err != nil {
			return nil, err
		}
		h := neutralizerHandler(f.Border, neut)
		if tr != nil {
			h = tr.buf("core", f.Border.Name).wrapHandler("core.border", h)
		}
		f.Border.SetHandler(h)
	}

	w := &bbWorld{sim: sim, bb: bb}
	nTemplates := min(size.hostsPerMetro-size.crossFlows, 64)
	var target netip.Addr
	for m, f := range bb.Metros {
		// Neutralized flows: metro m's outside user to metro m+1's
		// anycast. Hidden destinations avoid the low host indexes the
		// plain probes use, so only neutralized traffic reaches them.
		dst := bb.Metros[(m+1)%size.metros]
		src := f.OutsideAddr(0)
		var nonce keys.Nonce
		rng.Read(nonce[:])
		ks, err := sched.SessionKey(epoch, nonce, src)
		if err != nil {
			return nil, err
		}
		templates := make([][]byte, nTemplates)
		for k := range templates {
			host := dst.HostAddr(size.crossFlows + rng.Intn(size.hostsPerMetro-size.crossFlows))
			if m == 0 && k == 0 {
				target = host
			}
			var tweak [8]byte
			rng.Read(tweak[:])
			blk, err := aesutil.EncryptAddr(ks, host, tweak)
			if err != nil {
				return nil, err
			}
			sh := shim.Header{Type: shim.TypeData, InnerProto: wire.ProtoUDP,
				Epoch: epoch, Nonce: nonce, HiddenAddr: blk}
			if templates[k], err = buildShim(src, dst.Spec.Anycast, &sh, randBytes(rng, 64+rng.Intn(449))); err != nil {
				return nil, err
			}
		}
		w.addSource(tr, f.Outside[0], size.neutPps, templates)

		// Plain cross-metro probes between customer hosts.
		for i := 0; i < size.crossFlows; i++ {
			tmpl, err := buildUDP(f.HostAddr(i), dst.HostAddr(rng.Intn(size.crossFlows)), 9000,
				randBytes(rng, 32+rng.Intn(225)))
			if err != nil {
				return nil, err
			}
			w.addSource(tr, f.Hosts[i], size.crossPps/float64(size.crossFlows), [][]byte{tmpl})
		}
		w.tallies = append(w.tallies, f.CountDeliveries())
	}

	// The core targets one customer by address. Only neutralized traffic
	// reaches that customer, so the rule must never fire.
	w.policy = isp.NewPolicy(sim.Rand(), isp.Rule{
		Name:   bbTargetRule,
		Match:  isp.MatchDstAddr(target),
		Action: isp.Action{DropProb: 1},
	})
	hooks := []netem.TransitHook{w.policy.Hook()}
	if every := cfg.faultDropEvery; every > 0 {
		n := 0
		hooks = append(hooks, func(time.Time, *netem.Node, []byte) netem.Verdict {
			n++
			return netem.Verdict{Drop: n%every == 0}
		})
	}
	var hb *spanBuf
	if tr != nil {
		hb = tr.buf("hooks", bb.Core.Name)
	}
	for _, h := range hooks {
		if hb != nil {
			h = hb.wrapHook("hooks.transit", h)
		}
		bb.Core.AddTransitHook(h)
	}
	return w, nil
}

func (w *bbWorld) addSource(tr *tracer, node *netem.Node, pps float64, templates [][]byte) {
	send := trafficgen.CyclingSender(node, templates)
	emitted := new(int)
	emit := func(seq uint64) {
		send(seq)
		*emitted++
	}
	if tr != nil {
		emit = tr.buf("trafficgen", node.Addr().String()).wrapEmit("trafficgen.send", emit)
	}
	w.sources = append(w.sources, bbSource{node: node, pps: pps, emit: emit, emitted: emitted})
}

// scheduleSegment starts every source's emissions for the next segment
// and returns how many packets it scheduled.
func (w *bbWorld) scheduleSegment() int {
	const seg = bbSegment * bbChunk
	n := 0
	for i := range w.sources {
		s := &w.sources[i]
		s.credit += s.pps * seg.Seconds()
		k := int(s.credit)
		s.credit -= float64(k)
		if k > 0 {
			n += trafficgen.OpenLoop{RatePps: s.pps, Count: k}.Run(s.node, seg, s.emit)
			s.scheduled += k
		}
	}
	return n
}

// checkSources reports a source that sent nothing, sent other than it
// scheduled, or whose schedule strays from its rate over the simulated
// horizon by a packet or more.
func (w *bbWorld) checkSources(res *passResult, segments int) {
	horizon := (time.Duration(segments) * bbSegment * bbChunk).Seconds()
	for _, s := range w.sources {
		switch want := s.pps * horizon; {
		case *s.emitted == 0:
			res.problem("source %s sent nothing (rate %.2f pkt/s)", s.node.Addr(), s.pps)
		case *s.emitted != s.scheduled:
			res.problem("source %s sent %d of %d scheduled packets", s.node.Addr(), *s.emitted, s.scheduled)
		case math.Abs(float64(s.scheduled)-want) >= 1:
			res.problem("source %s scheduled %d packets in %.0f s at %.2f pkt/s", s.node.Addr(), s.scheduled, horizon, s.pps)
		}
	}
}

func (w *bbWorld) delivered() uint64 {
	var t uint64
	for _, d := range w.tallies {
		t += d.Total()
	}
	return t
}

func runBackbone(cfg config, tr *tracer) (*passResult, error) {
	size := bbFull
	if cfg.tiny {
		size = bbTiny
	}
	setups := max(cfg.setups, 1)
	var w *bbWorld
	setupTimes := make([]float64, 0, setups)
	// setup_s is the median of several set-ups; each earlier world is
	// dropped and collected before the next is timed, and the last one
	// (wrapped when tracing) is run.
	for i := 0; i < setups; i++ {
		w = nil
		runtime.GC()
		var str *tracer
		if i == setups-1 {
			str = tr
		}
		t0 := time.Now()
		var err error
		if w, err = setupBackbone(cfg, size, str); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	runtime.GC()
	heap := memStats().HeapAlloc

	res := &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	sim, reg := w.sim, w.sim.Metrics()
	var (
		opBuf          *spanBuf
		ops            opLog
		runCPU         time.Duration // process CPU time inside RunFor
		pendingSum     float64
		sent, measured int
		segments       int
		c0, ck         counters
		m0             runtime.MemStats
		base, ckT      layerTallies
		ckSent         int
	)
	if tr != nil {
		opBuf = tr.buf("op", "engine caller")
	}
	start := time.Now()
	warm := warmup(cfg.seconds)
	for chunk := 0; chunk < size.checkpoint || time.Since(start) < warm+secondsDur(cfg.seconds); chunk++ {
		timed := time.Since(start) >= warm
		if timed && measured == 0 {
			c0, m0 = readCounters(reg), memStats()
			base = tr.tallies()
		}
		before := w.delivered()
		var opIdx int
		var opID uint64
		if opBuf != nil {
			opIdx, opID = opBuf.open("backbone.chunk", tr.now(), 0, int64(chunk))
		}
		w0 := time.Now()
		if chunk%bbSegment == 0 {
			if err := w.bb.StartFluid(bbSegment * bbChunk); err != nil {
				return nil, err
			}
			sent += w.scheduleSegment()
			segments++
		}
		if opBuf != nil {
			cpu0 := cpuTime()
			r0 := tr.now()
			runIdx, runID := opBuf.open("netem.RunFor", r0, opID, int64(chunk))
			tr.enter(runID, int64(chunk))
			sim.RunFor(bbChunk)
			r1 := tr.now()
			opBuf.close(runIdx, r1)
			opBuf.close(opIdx, r1)
			if timed {
				runCPU += cpuTime() - cpu0
			}
		} else {
			sim.RunFor(bbChunk)
		}
		d := time.Since(w0)
		if timed {
			ops.add(float64(w.delivered()-before), d)
			pendingSum += float64(sim.PendingEvents())
			measured++
		}
		if chunk+1 == size.checkpoint {
			ck, ckSent, ckT = readCounters(reg), sent, tr.tallies()
			fb, ft := sim.FluidTotals()
			res.fingerprint = fmt.Sprintf("sent=%d events=%.0f delivered=%d forwarded=%.0f dropped=%.0f fluid_bytes=%d fluid_ticks=%d",
				sent, ck.get("netem_events_total"), w.delivered(), ck.get("netem_forwarded_packets_total"),
				ck.get("netem_dropped_packets_total"), fb, ft)
		}
	}
	c1 := readCounters(reg)
	m1 := memStats()
	during := tr.tallies().since(base)

	// Drain outside the timed region: every packet sent must arrive.
	sim.Run()
	total := w.delivered()
	res.attempted = int64(sent)
	if total < uint64(sent) {
		res.failed = int64(uint64(sent) - total)
		res.problem("delivered %d of %d packets (dropped %d)", total, sent, sim.Dropped())
	} else if total > uint64(sent) {
		res.problem("delivered %d packets, only %d sent", total, sent)
	}
	if hits := w.policy.Hits(bbTargetRule); hits != 0 {
		res.problem("core classifier fired %d times on neutralized traffic", hits)
	}
	if fb, _ := sim.FluidTotals(); fb == 0 {
		res.problem("fluid layer accounted zero bytes")
	}
	w.checkSources(res, segments)

	opNs := int64(ops.seconds() * 1e9)
	res.opWall = time.Duration(opNs)
	res.throughput = ops.rate()
	res.e2e["throughput_per_s"] = res.throughput
	res.e2e["op_p50_ms"] = ops.p50(time.Millisecond)
	res.e2e["op_p99_ms"] = ops.p99(time.Millisecond)
	res.e2e["setup_s"] = median(setupTimes)
	res.e2e["heap_mb"] = float64(heap) / (1 << 20)
	if tr == nil {
		return res, nil
	}

	l := res.layer
	events := c1.get("netem_events_total") - c0.get("netem_events_total")
	core, hooks, sends := during["core"], during["hooks"], during["trafficgen"]
	ckEvents, ckEpochs := ck.get("netem_events_total"), ck.get("netem_epochs_total")
	// Self time is CPU time: with several workers the callbacks of
	// different shards overlap in wall time, but each one's duration is
	// time on some CPU, so what is left of RunFor's CPU time is netem's
	// own, whatever the worker count.
	l["netem.self_ns_per_event"] = ratio(max(float64(runCPU.Nanoseconds()-core.ns-hooks.ns-sends.ns), 0), events)
	l["netem.events_per_pkt"] = ratio(ckEvents, float64(ckSent))
	l["netem.events"] = ckEvents
	l["netem.epochs"] = ckEpochs
	l["netem.events_per_epoch"] = ratio(ckEvents, ckEpochs)
	epochWall := histDelta(c0.hist("netem_epoch_wall_ns"), c1.hist("netem_epoch_wall_ns"))
	l["netem.epoch_wall_p50_us"] = epochWall.Quantile(0.50) / 1e3
	l["netem.epoch_wall_p99_us"] = epochWall.Quantile(0.99) / 1e3
	l["netem.lookahead_us"] = c1.get("netem_lookahead_ns") / 1e3
	l["netem.pending_events_mean"] = pendingSum / float64(measured)
	l["netem.pool_miss_ratio"] = ratio(ck.get("netem_pool_allocated_buffers_total"), ck.get("netem_pool_checkouts_total"))
	l["netem.queue_drops"] = ck.get("netem_link_queue_drops_total")
	l["core.busy_share"] = ratio(float64(core.ns), float64(opNs))
	l["core.pkts"] = float64(ckT["core"].calls)
	l["hooks.calls"] = float64(ckT["hooks"].calls)
	l["hooks.ns_per_call"] = ratio(float64(hooks.ns), float64(hooks.calls))
	l["hooks.busy_share"] = ratio(float64(hooks.ns), float64(opNs))
	l["trafficgen.sends"] = float64(ckT["trafficgen"].calls)
	l["trafficgen.ns_per_send"] = ratio(float64(sends.ns), float64(sends.calls))
	runtimeLayer(l, &m0, &m1, measured)
	return res, nil
}
