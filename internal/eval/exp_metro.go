// E6: the metro-scale engine experiment. Every paper scenario runs on
// the netem substrate, so the substrate's own throughput bounds the
// scenario sizes we can explore. E6 stamps out the paper's Figure-1
// shape at metro scale with netem.BuildFanout — one discriminatory
// transit network in front of one supportive ISP with 10,000 customer
// hosts — attaches the real stateless neutralizer at the border, pushes
// open-loop shim traffic through it, and reports the engine's
// sim-events/sec and forwarded packets/sec alongside the scenario-level
// verdicts (deliveries, classifier hits).
//
// The fan-out is built sharded (netem.FanoutSpec.ShardSubtrees): the
// outside world and transit in shard 0, the neutralizer border in shard
// 1, one shard per customer subtree. The worker count chooses how many
// threads execute the shards; with a fixed seed the outcome is
// bit-identical at every worker count.
//
// E9, the parallel engine experiment, is the same workload plus
// intra-subtree host chatter (the load that lives entirely inside the
// customer shards), swept over worker counts 1/2/4/8 with observation
// attached. Its speedup rows come from the sweep's per-run wall clock;
// like E5, scaling is only meaningful on hosts with enough cores, so it
// is enforced by scripts/benchjson (gated on NumCPU >= 4), not here.
package eval

import (
	"fmt"
	"runtime"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

// MetroConfig parameterizes the metro-scale run (E6, E9); the zero
// value is filled with the E6 defaults.
type MetroConfig struct {
	// Hosts is the customer host count (default 10000).
	Hosts int
	// Seed drives the simulator PRNG.
	Seed int64
	// Duration is the simulated time to run traffic for (default 2s).
	Duration time.Duration
	// RatePps is the open-loop offered load in packets per simulated
	// second (default 50000) from the outside source through the
	// neutralizer.
	RatePps float64
	// LocalPps, when positive, adds intra-subtree chatter: hosts talk
	// to a neighbor under the same edge at this aggregate rate. This is
	// the load component that lives entirely inside the customer
	// shards — the parallel-scaling experiments (E9, the parallel
	// benchmark) use it to model a metro whose hosts are not idle.
	LocalPps float64
	// Workers lists the thread counts of the identity sweep.
	Workers []int
	// Observe attaches the full observability plane — an epoch-barrier
	// Recorder and a packet FlightRecorder on the sim's registry — and
	// fills MetroStats.Obs with the observation digest. Observation is
	// passive: every deterministic outcome, including the digest itself,
	// stays bit-identical at any worker count.
	Observe bool
	// Attach, if set, runs against the built simulator before any
	// traffic is scheduled. neutsim's -metrics flag uses it to mount a
	// publishing Recorder, FlightRecorder and HTTP exporters on the
	// run's own registry. Attached observers must follow the OnBarrier
	// contract (never mutate sim state).
	Attach func(*netem.Simulator)
}

func (c *MetroConfig) fill() {
	if c.Hosts <= 0 {
		c.Hosts = 10000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.RatePps <= 0 {
		c.RatePps = 50000
	}
}

// E6's and E9's configs. The reduced ones run observed, so their
// sweeps compare the recorder rings and flight samples too.
var (
	e6Full    = MetroConfig{Seed: 66, Workers: []int{1}}
	e6Reduced = MetroConfig{Hosts: 1500, Seed: 66, Duration: 250 * time.Millisecond, RatePps: 20000,
		Observe: true, Workers: []int{1, 4}}
	e9Full = MetroConfig{Hosts: 10000, Seed: 9, Duration: time.Second, RatePps: 50000, LocalPps: 100000,
		Observe: true, Workers: []int{1, 2, 4, 8}}
	e9Reduced = MetroConfig{Hosts: 1200, Seed: 9, Duration: 300 * time.Millisecond, RatePps: 20000, LocalPps: 40000,
		Observe: true, Workers: []int{1, 2, 4}}
)

// MetroStats is the outcome of a metro-scale run.
type MetroStats struct {
	Hosts  int
	Shards int
	// Sent counts neutralized packets from the outside source;
	// LocalSent counts intra-subtree host chatter.
	Sent           int
	LocalSent      int
	Delivered      uint64
	Forwarded      uint64
	Dropped        uint64
	ClassifierHits uint64
	SimEvents      uint64
	BuildTime      time.Duration `identity:"-"`
	RunTime        time.Duration `identity:"-"` // wall clock of the event loop
	EventsPerSec   float64       `identity:"-"` // SimEvents / RunTime
	ForwardPps     float64       `identity:"-"` // Forwarded / RunTime
	DeliveredPps   float64       `identity:"-"` // Delivered / RunTime
	PoolAllocated  uint64
	PoolGets       uint64
	// Obs is the observation digest (nil unless MetroConfig.Observe).
	Obs *ObsDigest
}

// metroWorld is the shared substrate of RunMetro and MetroBench: the
// sharded fan-out with the real stateless neutralizer attached at the
// border on the zero-alloc scratch path, plus one pre-built shim data
// packet per customer host (the neutralizer re-derives the session key
// from (epoch, nonce, src) and decrypts the hidden per-host
// destination).
type metroWorld struct {
	env       *fanoutEnv
	sim       *netem.Simulator
	fan       *netem.Fanout
	templates [][]byte
}

func buildMetroWorld(seed int64, hosts, workers int, link netem.LinkConfig) (*metroWorld, error) {
	env, err := newFanoutEnv(seed, netem.FanoutSpec{
		Hosts: hosts, OutsideLink: link, TransitLink: link, EdgeLink: link,
		ShardSubtrees: true,
	})
	if err != nil {
		return nil, err
	}
	env.Sim.SetWorkers(workers)
	if err := env.attachNeutralizer(); err != nil {
		return nil, err
	}

	src := env.Fan.OutsideAddr(0)
	nonce := keys.Nonce{0xE6, 1}
	payload := make([]byte, 64)
	templates := make([][]byte, hosts)
	for i := range templates {
		sh, err := env.shimCred(src, env.Fan.HostAddr(i), nonce,
			[8]byte{byte(i), byte(i >> 8), byte(i >> 16)}, wire.ProtoUDP)
		if err != nil {
			return nil, err
		}
		templates[i], err = buildShim(src, env.Fan.Spec.Anycast, &sh, payload)
		if err != nil {
			return nil, err
		}
	}
	return &metroWorld{env: env, sim: env.Sim, fan: env.Fan, templates: templates}, nil
}

// hostNeighbor returns the same-edge neighbor of host i (the peer of
// its intra-subtree chatter), or -1 for a single-host edge.
func hostNeighbor(i, hosts, hostsPerEdge int) int {
	if j := i + 1; j < hosts && i/hostsPerEdge == j/hostsPerEdge {
		return j
	}
	if j := i - 1; j >= 0 && i/hostsPerEdge == j/hostsPerEdge {
		return j
	}
	return -1
}

// chatterSenders prebuilds the intra-subtree chatter wiring: for each
// host with a same-edge neighbor, a pooled template packet to that
// neighbor and a sender anchored to the host's node (so emissions run
// on the host's shard). One definition serves both the E9 experiment
// (localChatter) and the parallel benchmark fixture, so the benchmark
// workload cannot drift from the experiment it measures.
func chatterSenders(f *netem.Fanout) (nodes []*netem.Node, sends []func(seq uint64)) {
	payload := make([]byte, 40)
	for i, host := range f.Hosts {
		j := hostNeighbor(i, len(f.Hosts), f.Spec.HostsPerEdge)
		if j < 0 {
			continue // single-host edge: nobody to talk to
		}
		tmpl := buildProbeUDP(f.HostAddr(i), f.HostAddr(j), 9000, payload)
		nodes = append(nodes, host)
		sends = append(sends, trafficgen.CyclingSender(host, [][]byte{tmpl}))
	}
	return nodes, sends
}

// localChatter schedules the intra-subtree host-to-host load for
// duration d at the given aggregate rate. Returns the number of packets
// that will be sent.
func localChatter(f *netem.Fanout, pps float64, d time.Duration) int {
	if pps <= 0 {
		return 0
	}
	perHost := pps / float64(len(f.Hosts))
	nodes, sends := chatterSenders(f)
	sent := 0
	for i, node := range nodes {
		sent += trafficgen.OpenLoop{RatePps: perHost}.Run(node, d, sends[i])
	}
	return sent
}

// RunMetro builds the fan-out world on the given number of worker
// threads, attaches a neutralizer at the border and a (futile) targeted
// classifier at the transit router, and drives cfg.RatePps of
// neutralized traffic from one outside source toward all cfg.Hosts
// customers for cfg.Duration of virtual time, plus cfg.LocalPps of
// intra-subtree chatter.
func RunMetro(cfg MetroConfig, workers int) (*MetroStats, error) {
	cfg.fill()
	buildStart := time.Now()
	w, err := buildMetroWorld(cfg.Seed, cfg.Hosts, workers, netem.LinkConfig{})
	if err != nil {
		return nil, err
	}
	sim, f := w.sim, w.fan
	var o *observation
	if cfg.Observe {
		o = attachObservation(sim, time.Millisecond)
	}
	if cfg.Attach != nil {
		cfg.Attach(sim)
	}

	// The discriminatory transit tries to target one customer by
	// address; neutralized traffic never names it. The policy runs at
	// the transit router — shard 0 — so it draws from shard 0's RNG.
	policy := isp.NewPolicy(sim.Rand(), isp.Rule{
		Name:   "target-customer",
		Match:  isp.MatchDstAddr(f.HostAddr(0)),
		Action: isp.Action{DropProb: 1},
	})
	f.Transit.AddTransitHook(policy.Hook())

	delivered := f.CountDeliveries()
	st := &MetroStats{
		Hosts: cfg.Hosts, Shards: sim.ShardCount(),
		BuildTime: time.Since(buildStart),
	}

	st.Sent = trafficgen.OpenLoop{RatePps: cfg.RatePps}.Run(
		f.Outside[0], cfg.Duration, trafficgen.CyclingSender(f.Outside[0], w.templates))
	st.LocalSent = localChatter(f, cfg.LocalPps, cfg.Duration)

	runStart := time.Now()
	sim.Run()
	st.RunTime = time.Since(runStart)

	st.Delivered = delivered.Total()
	st.Forwarded = sim.Forwarded()
	st.Dropped = sim.Dropped()
	st.ClassifierHits = policy.Hits("target-customer")
	st.SimEvents = sim.EventsProcessed()
	st.PoolAllocated, st.PoolGets = sim.PoolStats()
	if o != nil {
		d := o.digest()
		st.Obs = &d
	}
	if sec := st.RunTime.Seconds(); sec > 0 {
		st.EventsPerSec = float64(st.SimEvents) / sec
		st.ForwardPps = float64(st.Forwarded) / sec
		st.DeliveredPps = float64(st.Delivered) / sec
	}
	want := uint64(st.Sent + st.LocalSent)
	if st.Delivered != want {
		return st, fmt.Errorf("eval: metro delivered %d of %d packets (dropped %d)",
			st.Delivered, want, st.Dropped)
	}
	// A firing classifier means neutralized packets named a customer —
	// the exact regression the CI smoke step exists to catch.
	if st.ClassifierHits != 0 {
		return st, fmt.Errorf("eval: transit classifier fired %d times on neutralized traffic",
			st.ClassifierHits)
	}
	return st, nil
}

func sweepMetro(cfg MetroConfig) (*sweep[*MetroStats], error) {
	return runSweep(cfg.Workers, func(w int) (*MetroStats, error) { return RunMetro(cfg, w) })
}

func e6Result(cfg MetroConfig) (*Result, error) {
	sw, err := sweepMetro(cfg)
	if err != nil {
		return nil, err
	}
	st := sw.first()
	rows := []Row{
		{Metric: "customer hosts", Paper: "-", Measured: fmt.Sprintf("%d", st.Hosts),
			Note: fmt.Sprintf("%d-node fan-out, %d shards", st.Hosts, st.Shards)},
		{Metric: "neutralized packets delivered", Paper: "all",
			Measured: fmt.Sprintf("%d/%d", st.Delivered, st.Sent), Note: "open-loop load, every customer reached"},
		{Metric: "classifier hits at transit", Paper: "0",
			Measured: fmt.Sprintf("%d", st.ClassifierHits), Note: "address-targeting rule cannot fire"},
		{Metric: "pooled buffers allocated", Paper: "-",
			Measured: fmt.Sprintf("%d", st.PoolAllocated),
			Note:     fmt.Sprintf("for %d checkouts (recycled, not copied per hop)", st.PoolGets)},
	}
	wall := []Row{
		{Metric: "build time", Paper: "-", Measured: st.BuildTime.Round(time.Millisecond).String(),
			Note: fmt.Sprintf("%d-host fan-out", st.Hosts)},
		{Metric: "sim events/sec", Paper: "-",
			Measured: fmt.Sprintf("%.0f", st.EventsPerSec),
			Note:     fmt.Sprintf("%d events in %v wall", st.SimEvents, st.RunTime.Round(time.Millisecond))},
		{Metric: "packets forwarded/sec", Paper: "-",
			Measured: fmt.Sprintf("%.0f", st.ForwardPps),
			Note:     fmt.Sprintf("%d forwarding hops", st.Forwarded)},
	}
	return sw.result(rows, wall), nil
}

const metroTitle = "Metro-scale emulation (10k customers, one neutralizer domain)"

func e9Result(cfg MetroConfig) (*Result, error) {
	sw, err := sweepMetro(cfg)
	if err != nil {
		return nil, err
	}
	st := sw.first()
	rows := []Row{{
		Metric: "workload", Paper: "-",
		Measured: fmt.Sprintf("%d hosts, %d shards", st.Hosts, st.Shards),
		Note: fmt.Sprintf("%d neutralized + %d intra-subtree packets over %v simulated",
			st.Sent, st.LocalSent, cfg.Duration),
	}}
	var wall []Row
	for _, r := range sw.runs {
		wall = append(wall, Row{
			Metric:   fmt.Sprintf("events/sec at %d worker(s)", r.workers),
			Paper:    "-",
			Measured: fmt.Sprintf("%.0f", float64(r.out.SimEvents)/r.wall.Seconds()),
			Note: fmt.Sprintf("%.2fx of %d worker(s) over the whole run, GOMAXPROCS=%d (scaling enforced by benchjson on >= 4 cores)",
				sw.runs[0].wall.Seconds()/r.wall.Seconds(), sw.runs[0].workers, runtime.GOMAXPROCS(0)),
		})
	}
	return sw.result(rows, wall), nil
}

const parScaleTitle = "Parallel sharded engine: worker scaling with bit-identical replay"

// MetroBench is the reusable fixture behind BenchmarkNetemMetro: the
// 10k-host world is built once, then bursts of neutralized traffic are
// pushed through it per benchmark op.
type MetroBench struct {
	sim       *netem.Simulator
	fan       *netem.Fanout
	templates [][]byte
	burst     int
	next      int
	delivered *netem.DeliveryCount
	expected  uint64
}

// NewMetroBench builds a fan-out of the given size whose link queues
// absorb same-instant bursts of burst packets.
func NewMetroBench(hosts, burst int) (*MetroBench, error) {
	w, err := buildMetroWorld(1, hosts, 1,
		netem.LinkConfig{Delay: time.Millisecond, QueueLen: 2 * burst})
	if err != nil {
		return nil, err
	}
	return &MetroBench{
		sim: w.sim, fan: w.fan, templates: w.templates, burst: burst,
		delivered: w.fan.CountDeliveries(),
	}, nil
}

// RunBurst injects one burst and drains the event loop, verifying every
// packet reached its customer.
func (m *MetroBench) RunBurst() error {
	for i := 0; i < m.burst; i++ {
		p := m.sim.NewPacket(m.templates[m.next])
		m.next = (m.next + 1) % len(m.templates)
		if err := m.fan.Outside[0].SendPacket(p); err != nil {
			return err
		}
	}
	m.sim.Run()
	m.expected += uint64(m.burst)
	if got := m.delivered.Total(); got != m.expected {
		return fmt.Errorf("eval: metro burst delivered %d, want %d", got, m.expected)
	}
	return nil
}

// Counters exposes the engine counters the benchmark reports.
func (m *MetroBench) Counters() (events, forwarded uint64) {
	return m.sim.EventsProcessed(), m.sim.Forwarded()
}

// NewMetroBenchObserved is NewMetroBench with the full observation plane
// attached — the epoch Recorder sampling every family at each barrier
// plus the sampling FlightRecorder on the trace path — so
// BenchmarkNetemMetroObs prices recording against the unobserved
// BenchmarkNetemMetro run on the identical workload (the
// obs_overhead_pct check in scripts/benchjson).
func NewMetroBenchObserved(hosts, burst int) (*MetroBench, error) {
	m, err := NewMetroBench(hosts, burst)
	if err != nil {
		return nil, err
	}
	attachObservation(m.sim, time.Millisecond)
	return m, nil
}

// NewMetroBenchTraced is NewMetroBench with always-on causal tracing
// attached: the flight recorder's deterministic flow sampler records 1%
// of flows end to end (every hop of every journey, what the span
// assembler needs) while the rest head-sample at 1-in-64.
// BenchmarkNetemMetroTrace prices this against the untraced metro run
// on the identical workload (the trace_overhead_pct check in
// scripts/benchjson).
func NewMetroBenchTraced(hosts, burst int) (*MetroBench, error) {
	m, err := NewMetroBench(hosts, burst)
	if err != nil {
		return nil, err
	}
	attachTracing(m.sim)
	return m, nil
}

// AttachNeutralizerScratch wires a core.Neutralizer into a netem node on
// the zero-allocation scratch path: shim packets delivered to the node
// are processed and the outputs sent back into the fabric (which copies
// them into pooled buffers before the next Reset). Processing is
// instantaneous in virtual time; use AttachNeutralizerScratchProc to
// model a per-packet processing cost.
func AttachNeutralizerScratch(node *netem.Node, n *core.Neutralizer) {
	AttachNeutralizerScratchProc(node, n, 0)
}

// AttachNeutralizerScratchProc is AttachNeutralizerScratch with a
// per-packet virtual processing cost: each output packet enters the
// fabric proc after its trigger arrived, and the time is attributed to
// the journey's Proc trace component — the neutralizer's processing
// share of end-to-end latency, visible to the span assembler.
func AttachNeutralizerScratchProc(node *netem.Node, n *core.Neutralizer, proc time.Duration) {
	s := core.NewScratch()
	node.SetHandler(func(now time.Time, pkt []byte) {
		s.Reset()
		outs, err := n.ProcessScratch(s, pkt)
		if err != nil {
			return
		}
		for _, o := range outs {
			if len(o.Pkt) < wire.IPv4HeaderLen {
				continue
			}
			_ = node.SendPacketProc(node.NewPacket(o.Pkt), proc)
		}
	})
}

// ParMetroBench is the fixture behind BenchmarkNetemMetroParallel: the
// sharded metro world built once per worker count, with the downstream
// sender and every per-host chatter sender prebuilt, so one benchmark
// op pays only the traffic it schedules and runs. The workload matches
// E9: neutralized downstream load through the border plus
// intra-subtree host chatter. Size chunks so the per-host chatter
// interval fits inside them — RunChunk reports how many packets it
// scheduled precisely so a mis-sized chunk cannot silently degrade the
// workload to downstream-only.
type ParMetroBench struct {
	w        *metroWorld
	rate     float64
	perHost  float64
	outSend  func(seq uint64)
	hosts    []*netem.Node
	hostSend []func(seq uint64)
}

// NewParMetroBench builds the fixture at the given host count and
// worker count.
func NewParMetroBench(hosts, workers int) (*ParMetroBench, error) {
	w, err := buildMetroWorld(1, hosts, workers,
		netem.LinkConfig{Delay: time.Millisecond, QueueLen: 512})
	if err != nil {
		return nil, err
	}
	f := w.fan
	p := &ParMetroBench{
		w: w, rate: 40000, perHost: 80000 / float64(hosts),
		outSend: trafficgen.CyclingSender(f.Outside[0], w.templates),
	}
	p.hosts, p.hostSend = chatterSenders(f)
	return p, nil
}

// RunChunk schedules one chunk of downstream and intra-subtree load,
// advances the simulation through it, and returns the number of packets
// scheduled (callers should reject a chunk that scheduled no chatter).
func (p *ParMetroBench) RunChunk(d time.Duration) int {
	sent := trafficgen.OpenLoop{RatePps: p.rate}.Run(p.w.fan.Outside[0], d, p.outSend)
	local := 0
	for i, host := range p.hosts {
		local += trafficgen.OpenLoop{RatePps: p.perHost}.Run(host, d, p.hostSend[i])
	}
	p.w.sim.RunFor(d)
	if local == 0 {
		return 0 // chunk shorter than the per-host interval: wrong workload
	}
	return sent + local
}

// Events reports the engine's cumulative event count.
func (p *ParMetroBench) Events() uint64 { return p.w.sim.EventsProcessed() }
