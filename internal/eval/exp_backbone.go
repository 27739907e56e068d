// E13: the continental-scale backbone experiment. E6 proved the paper's
// Figure-1 shape at metro scale; E13 stitches many such metros — each
// with its own address blocks, its own anycast neutralizer at its own
// border — through a transit core with wide-area delays
// (netem.BuildBackbone), and runs three traffic planes at once:
//
//   - neutralized shim flows that cross the backbone: metro m's outside
//     user sends to metro (m+1)'s anycast address, so the core and every
//     transit router on the path see only (outside source, anycast
//     destination) — the paper's indistinguishability claim at
//     continental scale;
//   - plain cross-metro probe flows between customer hosts, keeping
//     packet fidelity on the measured paths;
//   - fluid background aggregates on every border↔edge link, consuming
//     link capacity without per-packet events (the hybrid abstraction
//     that makes million-host scenarios affordable).
//
// A classifier at the core targets a customer address that only
// neutralized traffic reaches; it must never fire. And the engine's
// central contract is enforced across dozens of shards: every
// deterministic outcome — including the fluid layer's byte accounting
// and the full observation digest, which every run records — is
// bit-identical at every worker count.
//
// (E11 and E12 are reserved on the ROADMAP for the adaptive arms race
// and the economic layer; this experiment registers as E13.)
package eval

import (
	"fmt"
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

// BackboneConfig parameterizes the continental run; the zero value gets
// the registered E13 defaults.
type BackboneConfig struct {
	// Metros is the metro count (default 6).
	Metros int
	// HostsPerMetro is the customer-host count per metro (default 1000).
	HostsPerMetro int
	// Seed drives every RNG.
	Seed int64
	// Duration is the simulated traffic time (default 400ms).
	Duration time.Duration
	// RatePps is each metro's neutralized cross-backbone load (default
	// 2000 packets per simulated second, per metro).
	RatePps float64
	// CrossFlows is the number of plain cross-metro host pairs per metro
	// (default 32; must stay below HostsPerMetro-1 so the classifier
	// target stays neutralized-only).
	CrossFlows int
	// CrossPps is each metro's aggregate plain cross-metro load
	// (default 1000).
	CrossPps float64
	// FluidBpsPerEdge is the background aggregate per border↔edge link
	// direction (default 20 Mbps on 100 Mbps edge links).
	FluidBpsPerEdge float64
	// Workers lists the thread counts of the identity sweep.
	Workers []int
}

func (c *BackboneConfig) fill() {
	if c.Metros <= 0 {
		c.Metros = 6
	}
	if c.HostsPerMetro <= 0 {
		c.HostsPerMetro = 1000
	}
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if c.RatePps <= 0 {
		c.RatePps = 2000
	}
	if c.CrossFlows <= 0 {
		c.CrossFlows = 32
	}
	if c.CrossPps <= 0 {
		c.CrossPps = 1000
	}
	if c.FluidBpsPerEdge == 0 {
		c.FluidBpsPerEdge = 20e6
	}
}

// E13's configs. The reduced one keeps the contract testable at CI
// speed: four small metros instead of six larger ones.
var (
	e13Full    = BackboneConfig{Seed: 13, Workers: []int{1, 2, 4}}
	e13Reduced = BackboneConfig{Metros: 4, HostsPerMetro: 200, Seed: 31,
		Duration: 150 * time.Millisecond, RatePps: 4000, CrossPps: 2000, Workers: []int{1, 2, 4}}
)

// BackboneStats is the outcome of one continental run.
type BackboneStats struct {
	Metros int
	Hosts  int // total customer hosts
	Shards int

	NeutSent       int // neutralized cross-backbone packets
	CrossSent      int // plain cross-metro probe packets
	Delivered      uint64
	Forwarded      uint64
	Dropped        uint64
	ClassifierHits uint64
	SimEvents      uint64
	FluidBytes     uint64
	FluidTicks     uint64
	PoolGets       uint64

	BuildTime    time.Duration `identity:"-"`
	RunTime      time.Duration `identity:"-"`
	EventsPerSec float64       `identity:"-"`
	Obs          *ObsDigest
}

// backboneWorld is the built substrate shared by RunBackbone and the
// BenchmarkBackboneEvents fixture.
type backboneWorld struct {
	sim *netem.Simulator
	bb  *netem.Backbone
	// neutSends[m] cycles metro m's outside user through its templates
	// (neutralized, addressed to metro (m+1)'s anycast).
	neutSends []func(seq uint64)
	// crossNodes/crossSends are the plain cross-metro probe senders,
	// anchored at their source hosts.
	crossNodes []*netem.Node
	crossSends []func(seq uint64)
}

// backboneLinks is the link plan of the experiment: 100 Mbps edge links
// (so fluid load is a meaningful fraction of capacity) and queue room
// for open-loop bursts; everything keeps a positive delay, which the
// sharded engine requires on shard-crossing links.
func backboneLinks(spec *netem.BackboneSpec) {
	spec.HostLink = netem.LinkConfig{Delay: time.Millisecond}
	spec.EdgeLink = netem.LinkConfig{Delay: time.Millisecond, RateBps: 100e6, QueueLen: 512}
	spec.TransitLink = netem.LinkConfig{Delay: time.Millisecond, QueueLen: 512}
	spec.OutsideLink = netem.LinkConfig{Delay: time.Millisecond}
}

func buildBackboneWorld(cfg BackboneConfig, workers int) (*backboneWorld, error) {
	if cfg.CrossFlows >= cfg.HostsPerMetro-1 {
		return nil, fmt.Errorf("eval: %d cross flows need at least %d hosts per metro",
			cfg.CrossFlows, cfg.CrossFlows+2)
	}
	sim := netem.NewSimulator(benchStart, cfg.Seed)
	spec := netem.BackboneSpec{
		Metros:          cfg.Metros,
		HostsPerMetro:   cfg.HostsPerMetro,
		FluidBpsPerEdge: cfg.FluidBpsPerEdge,
		FluidInterval:   20 * time.Millisecond,
	}
	backboneLinks(&spec)
	bb, err := netem.BuildBackbone(sim, spec)
	if err != nil {
		return nil, err
	}
	sim.SetWorkers(workers)

	// One master-key schedule serves every metro's neutralizer — the
	// paper's single supportive operator running a continental anycast
	// service.
	sched := keys.NewSchedule(aesutil.Key{7}, benchStart, time.Hour)
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
		AttachNeutralizerScratch(f.Border, neut)
	}

	w := &backboneWorld{sim: sim, bb: bb}
	payload := make([]byte, 64)
	nTemplates := min(cfg.HostsPerMetro, 64)
	stride := cfg.HostsPerMetro/nTemplates | 1
	for m, f := range bb.Metros {
		// Metro m's outside user sends neutralized flows across the
		// backbone to metro (m+1)'s anycast; the hidden destinations
		// stride across that metro's edges.
		dstMetro := bb.Metros[(m+1)%cfg.Metros]
		src := f.OutsideAddr(0)
		nonce := keys.Nonce{0xE1, 3, byte(m)}
		templates := make([][]byte, nTemplates)
		for k := range templates {
			dst := dstMetro.HostAddr(k * stride % cfg.HostsPerMetro)
			ks, err := sched.SessionKey(epoch, nonce, src)
			if err != nil {
				return nil, err
			}
			blk, err := aesutil.EncryptAddr(ks, dst, [8]byte{byte(m), byte(k), byte(k >> 8)})
			if err != nil {
				return nil, err
			}
			sh := shim.Header{
				Type: shim.TypeData, InnerProto: wire.ProtoUDP,
				Epoch: epoch, Nonce: nonce, HiddenAddr: blk,
			}
			templates[k], err = buildShim(src, dstMetro.Spec.Anycast, &sh, payload)
			if err != nil {
				return nil, err
			}
		}
		w.neutSends = append(w.neutSends, trafficgen.CyclingSender(f.Outside[0], templates))

		// Plain cross-metro probes: host i of metro m talks to host i of
		// metro (m+1) — real packets on the paths an auditor would measure.
		for i := 0; i < cfg.CrossFlows; i++ {
			host := f.Hosts[i]
			tmpl := buildProbeUDP(f.HostAddr(i), dstMetro.HostAddr(i), 9000, nil)
			w.crossNodes = append(w.crossNodes, host)
			w.crossSends = append(w.crossSends, trafficgen.CyclingSender(host, [][]byte{tmpl}))
		}
	}
	return w, nil
}

// RunBackbone builds the continental world on the given number of
// worker threads, attaches the observability plane, and drives all
// three traffic planes for cfg.Duration of virtual time.
func RunBackbone(cfg BackboneConfig, workers int) (*BackboneStats, error) {
	cfg.fill()
	buildStart := time.Now()
	w, err := buildBackboneWorld(cfg, workers)
	if err != nil {
		return nil, err
	}
	sim, bb := w.sim, w.bb
	o := attachObservation(sim, time.Millisecond)

	// The core tries to target a customer by address. Only neutralized
	// traffic reaches the classifier's target (the cross-metro probes use
	// the low host indexes), so it must never fire.
	policy := isp.NewPolicy(sim.Rand(), isp.Rule{
		Name:   "target-customer",
		Match:  isp.MatchDstAddr(bb.HostAddr(1, cfg.HostsPerMetro-1)),
		Action: isp.Action{DropProb: 1},
	})
	bb.Core.AddTransitHook(policy.Hook())

	st := &BackboneStats{
		Metros: cfg.Metros, Hosts: cfg.Metros * cfg.HostsPerMetro,
		Shards: sim.ShardCount(), BuildTime: time.Since(buildStart),
	}
	var tallies []*netem.DeliveryCount
	for _, f := range bb.Metros {
		tallies = append(tallies, f.CountDeliveries())
	}
	if err := bb.StartFluid(cfg.Duration); err != nil {
		return nil, err
	}
	for m, f := range bb.Metros {
		st.NeutSent += trafficgen.OpenLoop{RatePps: cfg.RatePps}.Run(
			f.Outside[0], cfg.Duration, w.neutSends[m])
	}
	perFlow := cfg.CrossPps / float64(cfg.CrossFlows)
	for i, host := range w.crossNodes {
		st.CrossSent += trafficgen.OpenLoop{RatePps: perFlow}.Run(host, cfg.Duration, w.crossSends[i])
	}

	runStart := time.Now()
	sim.Run()
	st.RunTime = time.Since(runStart)

	for _, d := range tallies {
		st.Delivered += d.Total()
	}
	st.Forwarded = sim.Forwarded()
	st.Dropped = sim.Dropped()
	st.ClassifierHits = policy.Hits("target-customer")
	st.SimEvents = sim.EventsProcessed()
	st.FluidBytes, st.FluidTicks = sim.FluidTotals()
	_, st.PoolGets = sim.PoolStats()
	d := o.digest()
	st.Obs = &d
	if sec := st.RunTime.Seconds(); sec > 0 {
		st.EventsPerSec = float64(st.SimEvents) / sec
	}
	want := uint64(st.NeutSent + st.CrossSent)
	if st.Delivered != want {
		return st, fmt.Errorf("eval: backbone delivered %d of %d packets (dropped %d)",
			st.Delivered, want, st.Dropped)
	}
	if st.ClassifierHits != 0 {
		return st, fmt.Errorf("eval: core classifier fired %d times on neutralized traffic",
			st.ClassifierHits)
	}
	if cfg.FluidBpsPerEdge > 0 && st.FluidBytes == 0 {
		return st, fmt.Errorf("eval: fluid layer accounted zero bytes")
	}
	return st, nil
}

func e13Result(cfg BackboneConfig) (*Result, error) {
	sw, err := runSweep(cfg.Workers, func(w int) (*BackboneStats, error) { return RunBackbone(cfg, w) })
	if err != nil {
		return nil, err
	}
	st := sw.first()
	rows := []Row{
		{Metric: "topology", Paper: "-",
			Measured: fmt.Sprintf("%d metros, %d hosts, %d shards", st.Metros, st.Hosts, st.Shards),
			Note:     "prefix-compressed FIBs"},
		{Metric: "cross-backbone packets delivered", Paper: "all",
			Measured: fmt.Sprintf("%d/%d", st.Delivered, st.NeutSent+st.CrossSent),
			Note:     fmt.Sprintf("%d neutralized + %d plain cross-metro", st.NeutSent, st.CrossSent)},
		{Metric: "classifier hits at the core", Paper: "0",
			Measured: fmt.Sprintf("%d", st.ClassifierHits),
			Note:     "address-targeting rule sees only (outside, anycast) pairs"},
		{Metric: "fluid background bytes", Paper: "-",
			Measured: fmt.Sprintf("%d", st.FluidBytes),
			Note: fmt.Sprintf("%d rate-update ticks instead of ~%dM packet events",
				st.FluidTicks, st.FluidBytes/1500/1_000_000)},
	}
	wall := []Row{{Metric: "build time", Paper: "-", Measured: st.BuildTime.Round(time.Millisecond).String(),
		Note: fmt.Sprintf("%d-host backbone", st.Hosts)}}
	for _, r := range sw.runs {
		wall = append(wall, Row{
			Metric:   fmt.Sprintf("events/sec at %d worker(s)", r.workers),
			Paper:    "-",
			Measured: fmt.Sprintf("%.0f", r.out.EventsPerSec),
			Note:     fmt.Sprintf("%d events in %v wall", r.out.SimEvents, r.out.RunTime.Round(time.Millisecond)),
		})
	}
	return sw.result(rows, wall), nil
}

const backboneTitle = "Continental backbone: multi-metro anycast with fluid background load"

// BackboneBench is the fixture behind BenchmarkBackboneEvents: the
// continental world built once per worker count; each op schedules one
// chunk of all three traffic planes and advances the engine through it.
type BackboneBench struct {
	w   *backboneWorld
	cfg BackboneConfig
}

// NewBackboneBench builds the fixture.
func NewBackboneBench(metros, hostsPerMetro, workers int) (*BackboneBench, error) {
	cfg := BackboneConfig{Metros: metros, HostsPerMetro: hostsPerMetro, Seed: 1}
	cfg.fill()
	w, err := buildBackboneWorld(cfg, workers)
	if err != nil {
		return nil, err
	}
	return &BackboneBench{w: w, cfg: cfg}, nil
}

// RunChunk schedules one chunk of neutralized, cross-metro, and fluid
// load, advances the simulation through it, and returns the number of
// packets scheduled.
func (b *BackboneBench) RunChunk(d time.Duration) (int, error) {
	if err := b.w.bb.StartFluid(d); err != nil {
		return 0, err
	}
	sent := 0
	for m, f := range b.w.bb.Metros {
		sent += trafficgen.OpenLoop{RatePps: b.cfg.RatePps}.Run(f.Outside[0], d, b.w.neutSends[m])
	}
	perFlow := b.cfg.CrossPps / float64(b.cfg.CrossFlows)
	for i, host := range b.w.crossNodes {
		sent += trafficgen.OpenLoop{RatePps: perFlow}.Run(host, d, b.w.crossSends[i])
	}
	b.w.sim.RunFor(d)
	return sent, nil
}

// Events reports the engine's cumulative event count.
func (b *BackboneBench) Events() uint64 { return b.w.sim.EventsProcessed() }
