// E7: the arms race. The paper's claim is that encryption strips a
// discriminatory ISP of what it needs to classify traffic; E7 stress-
// tests that claim against the adversary the claim does not cover. At
// fan-out scale it runs every combination of traffic mode {plaintext,
// encrypted, encrypted+cloak} and adversary {port-rule ISP, statistical
// dpi ISP}, with app-shaped flows (VoIP / video / bulk / web) as the
// workload, and measures classifier accuracy and per-class goodput:
//
//   - The port-rule ISP catches plaintext VoIP and is blinded by
//     encryption — the paper's result, reproduced.
//   - The dpi ISP classifies *encrypted* flows from sizes and timing
//     alone at >= 90% accuracy and degrades what it classifies:
//     encryption alone does not defeat statistical traffic analysis.
//   - Cloaking (padding + tick quantization + cover traffic) drives
//     dpi accuracy to chance and restores the targeted class's
//     goodput — at a measured overhead in wire bytes and latency,
//     which is the price of the last rung of the ladder.
package eval

import (
	"fmt"
	mathrand "math/rand"
	"net/netip"
	"time"

	"netneutral/internal/cloak"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/dpi"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

// ArmsMode is how the flows travel.
type ArmsMode uint8

// Traffic modes.
const (
	// ModePlaintext sends raw UDP with real ports: the pre-neutralizer
	// world.
	ModePlaintext ArmsMode = iota
	// ModeEncrypted sends neutralized shim traffic (hidden destination,
	// opaque payload) with the application's natural sizes and timing.
	ModeEncrypted
	// ModeCloaked is ModeEncrypted through the cloak shaper: padded to
	// one bucket, released on a tick grid, idle ticks filled with cover.
	ModeCloaked
)

func (m ArmsMode) String() string {
	switch m {
	case ModePlaintext:
		return "plaintext"
	case ModeEncrypted:
		return "encrypted"
	default:
		return "encrypted+cloak"
	}
}

// ArmsAdversary is who sits at the transit router.
type ArmsAdversary uint8

// Adversaries.
const (
	// AdvNone observes features without classifying or interfering (the
	// calibration/training tap).
	AdvNone ArmsAdversary = iota
	// AdvPortRule is the strawman: drop 90% of packets matching the
	// VoIP UDP port.
	AdvPortRule
	// AdvDPI is the statistical adversary: classify flows by size and
	// timing features, drop 90% of classified VoIP, token-bucket
	// throttle classified video.
	AdvDPI
)

func (a ArmsAdversary) String() string {
	switch a {
	case AdvPortRule:
		return "port-rule"
	case AdvDPI:
		return "dpi"
	default:
		return "none"
	}
}

// ArmsConfig parameterizes E7; the zero value gets the registered
// experiment's defaults.
type ArmsConfig struct {
	// FlowsPerClass is the number of flows per application class
	// (default 25; total flows = 4x this).
	FlowsPerClass int
	// Seed drives every RNG in the experiment.
	Seed int64
	// Duration is simulated traffic time per cell (default 5s).
	Duration time.Duration
	// Workers lists the identity sweep's runs. E7 runs on one simulator
	// thread, so each entry is one same-seed replay.
	Workers []int
}

func (c *ArmsConfig) fill() {
	if c.FlowsPerClass <= 0 {
		c.FlowsPerClass = 25
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
}

// E7's configs: the registered scale, and the reduced one replayed.
var (
	e7Full    = ArmsConfig{Seed: 7, Workers: []int{1}}
	e7Reduced = ArmsConfig{FlowsPerClass: 8, Seed: 7, Duration: 2 * time.Second, Workers: []int{1, 1}}
)

// armsCloakConfig is the E7 cloak setting: maximal cloaking — one size
// bucket, a 2.5ms tick (above every app's peak rate), cover traffic on.
var armsCloakConfig = cloak.Config{
	SizeBuckets: []int{1400},
	Tick:        2500 * time.Microsecond,
	PerTick:     1,
	Cover:       true,
}

// ArmsCell is the measured outcome of one (mode, adversary) run.
type ArmsCell struct {
	Mode      ArmsMode
	Adversary ArmsAdversary

	Flows int
	// Accuracy is the dpi classifier's flow accuracy (-1 when the
	// adversary has no classifier).
	Accuracy float64
	// PortHits counts port-rule matches.
	PortHits uint64
	// Goodput is delivered/sent application bytes per class.
	Goodput [trafficgen.NumApps]float64
	// SentReal/DeliveredReal total application payload bytes.
	SentReal, DeliveredReal uint64
	// CloakOverhead is cloak wire bytes per real byte (1 uncloaked);
	// CloakDelay is the mean added latency per payload frame.
	CloakOverhead float64
	CloakDelay    time.Duration
	// DPIDrops / DPIPoliced count enforcement actions by the dpi engine.
	DPIDrops, DPIPoliced uint64
}

// ArmsStats is the full E7 outcome.
type ArmsStats struct {
	Cells []ArmsCell
	// TrainedFlows is the calibration population behind the classifier.
	TrainedFlows int
}

// Cell returns the run for a (mode, adversary) pair, or nil.
func (s *ArmsStats) Cell(m ArmsMode, a ArmsAdversary) *ArmsCell {
	for i := range s.Cells {
		if s.Cells[i].Mode == m && s.Cells[i].Adversary == a {
			return &s.Cells[i]
		}
	}
	return nil
}

func dpiClassOf(app trafficgen.App) dpi.Class {
	switch app {
	case trafficgen.AppVoIP:
		return dpi.ClassVoIP
	case trafficgen.AppVideo:
		return dpi.ClassVideo
	case trafficgen.AppBulk:
		return dpi.ClassBulk
	default:
		return dpi.ClassWeb
	}
}

// armsRun is one cell's live state while the simulator runs.
type armsRun struct {
	cell    ArmsCell
	table   *dpi.FlowTable // populated feature tap (AdvNone) or engine table
	keyOf   []netem.FlowKey
	classOf []dpi.Class
}

// runArmsCell builds the fan-out world for one cell and drives it.
// seedSalt decorrelates cells (training and evaluation must not share
// jitter streams).
func runArmsCell(cfg ArmsConfig, mode ArmsMode, adv ArmsAdversary, cls *dpi.Classifier, seedSalt int64) (*armsRun, error) {
	nFlows := trafficgen.NumApps * cfg.FlowsPerClass
	qlen := 8 * nFlows
	if qlen < 512 {
		qlen = 512
	}
	link := netem.LinkConfig{Delay: time.Millisecond, QueueLen: qlen}
	// E7 runs unsharded: its flows all originate outside and the cloak
	// shapers schedule on the simulator, which is exactly the
	// single-shard contract.
	env, err := newFanoutEnv(cfg.Seed+seedSalt, netem.FanoutSpec{
		Hosts: nFlows, Outside: nFlows,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
	})
	if err != nil {
		return nil, err
	}
	sim, f := env.Sim, env.Fan
	if mode != ModePlaintext {
		if err := env.attachNeutralizer(); err != nil {
			return nil, err
		}
	}

	run := &armsRun{
		cell:    ArmsCell{Mode: mode, Adversary: adv, Flows: nFlows, Accuracy: -1, CloakOverhead: 1},
		keyOf:   make([]netem.FlowKey, nFlows),
		classOf: make([]dpi.Class, nFlows),
	}

	// The adversary (or calibration tap) at the transit router.
	var engine *dpi.Engine
	var portPolicy *isp.Policy
	switch adv {
	case AdvPortRule:
		portPolicy = isp.NewPolicy(mathrand.New(mathrand.NewSource(cfg.Seed+seedSalt+101)), isp.Rule{
			Name:   "target-voip-port",
			Match:  isp.MatchUDPPort(trafficgen.AppVoIP.Port()),
			Action: isp.Action{DropProb: 0.9},
		})
		f.Transit.AddTransitHook(portPolicy.Hook())
	case AdvDPI:
		var pol dpi.Policy
		pol[dpi.ClassVoIP] = dpi.ClassPolicy{DropProb: 0.9}
		pol[dpi.ClassVideo] = dpi.ClassPolicy{RateBps: 8e6}
		// Classify early and reclassify often: sparse flows (web
		// fetches during think time) must still be judged, and on their
		// mature features, not their first burst.
		engine = dpi.NewEngine(dpi.EngineConfig{
			Table:  dpi.Config{Classifier: cls, MinPackets: 8, ReclassifyEvery: 8},
			Policy: pol,
			Rng:    mathrand.New(mathrand.NewSource(cfg.Seed + seedSalt + 77)),
		})
		run.table = engine.Table()
		f.Transit.AddTransitHook(engine.Hook())
	default:
		run.table = dpi.NewFlowTable(dpi.Config{})
		tab := run.table
		f.Transit.AddTransitHook(func(now time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
			if key, fwd, ok := netem.FlowKeyOf(pkt); ok {
				tab.Observe(key, fwd, len(pkt), now.UnixNano())
			}
			return netem.Deliver
		})
	}

	// Per-class byte accounting, filled by senders and host handlers.
	var sentReal, deliveredReal [trafficgen.NumApps]uint64
	shapers := make([]*cloak.Shaper, 0, nFlows)

	for i := 0; i < nFlows; i++ {
		app := trafficgen.App(i % trafficgen.NumApps)
		run.classOf[i] = dpiClassOf(app)
		src := f.Outside[i]
		dst := f.HostAddr(i)
		// The salt stride keeps per-flow jitter streams disjoint across
		// cells at any realistic flow count: training and evaluation
		// must not share randomness.
		flowRng := mathrand.New(mathrand.NewSource(cfg.Seed*1_000_003 + seedSalt<<32 + int64(i)))

		var emit func(seq uint64, size int)
		if mode == ModePlaintext {
			run.keyOf[i], err = netem.FlowKeyFrom(src.Addr(), dst, wire.ProtoUDP)
			if err != nil {
				return nil, err
			}
			port := app.Port()
			emit = func(_ uint64, size int) {
				sentReal[app] += uint64(size)
				_ = src.Send(buildArmsUDP(src.Addr(), dst, port, size))
			}
		} else {
			run.keyOf[i], err = netem.FlowKeyFrom(src.Addr(), f.Spec.Anycast, wire.ProtoShim)
			if err != nil {
				return nil, err
			}
			// Per-flow neutralizer credentials: the session key is
			// derivable by the stateless core from (epoch, nonce, src).
			var nonce keys.Nonce
			nonce[0], nonce[1], nonce[7] = byte(i>>8), byte(i), 0xE7
			hdr, err := env.shimCred(src.Addr(), dst, nonce, [8]byte{byte(i), byte(i >> 8), 0xA7}, 0)
			if err != nil {
				return nil, err
			}
			sh := &hdr
			srcAddr := src.Addr()
			sendShim := func(payload []byte) {
				pkt, err := buildShim(srcAddr, f.Spec.Anycast, sh, payload)
				if err != nil {
					return
				}
				_ = src.Send(pkt)
			}
			if mode == ModeEncrypted {
				scratch := make([]byte, 2048)
				emit = func(_ uint64, size int) {
					sentReal[app] += uint64(size)
					sendShim(scratch[:size])
				}
			} else {
				shaper := cloak.NewShaper(armsCloakConfig, sim, func(frame []byte) { sendShim(frame) })
				shaper.Run(cfg.Duration)
				shapers = append(shapers, shaper)
				scratch := make([]byte, 2048)
				emit = func(_ uint64, size int) {
					sentReal[app] += uint64(size)
					shaper.Send(scratch[:size])
				}
			}
		}

		hostApp := app
		cloaked := mode == ModeCloaked
		f.Hosts[i].SetHandler(func(_ time.Time, pkt []byte) {
			deliveredReal[hostApp] += uint64(armsRealPayloadLen(pkt, cloaked))
		})

		trafficgen.AppSource{App: app, Rng: flowRng}.Run(sim, cfg.Duration, emit)
	}

	sim.Run()

	// Harvest the verdict metrics.
	c := &run.cell
	for app := 0; app < trafficgen.NumApps; app++ {
		c.SentReal += sentReal[app]
		c.DeliveredReal += deliveredReal[app]
		if sentReal[app] > 0 {
			c.Goodput[app] = float64(deliveredReal[app]) / float64(sentReal[app])
		}
	}
	if portPolicy != nil {
		c.PortHits = portPolicy.Hits("target-voip-port")
	}
	if engine != nil {
		c.DPIDrops = engine.Drops(dpi.ClassVoIP)
		c.DPIPoliced = engine.Policed(dpi.ClassVideo)
	}
	if run.table != nil && cls != nil {
		correct := 0
		for i, key := range run.keyOf {
			if got, ok := run.table.ClassOf(key); ok && got == run.classOf[i] {
				correct++
			}
		}
		c.Accuracy = float64(correct) / float64(nFlows)
	}
	if len(shapers) > 0 {
		var wire, real uint64
		var delaySum time.Duration
		var frames uint64
		for _, sh := range shapers {
			st := sh.Stats()
			wire += st.WireBytes
			real += st.RealBytes
			delaySum += st.QueueDelaySum
			frames += st.Frames
		}
		if real > 0 {
			c.CloakOverhead = float64(wire) / float64(real)
		}
		if frames > 0 {
			c.CloakDelay = delaySum / time.Duration(frames)
		}
	}
	return run, nil
}

// buildArmsUDP serializes a plaintext app packet of the given payload
// length (the probe builder with a zeroed payload).
func buildArmsUDP(src, dst netip.Addr, dport uint16, payloadLen int) []byte {
	return buildProbeUDP(src, dst, dport, make([]byte, payloadLen))
}

// armsRealPayloadLen extracts the delivered application byte count from
// a packet that arrived at a customer host: UDP payload for plaintext,
// shim payload for neutralized traffic, and the decoded (non-cover)
// cloak frame payload when cloaking is on.
func armsRealPayloadLen(pkt []byte, cloaked bool) int {
	var ip wire.IPv4
	if ip.DecodeFromBytes(pkt) != nil {
		return 0
	}
	var payload []byte
	switch ip.Protocol {
	case wire.ProtoUDP:
		if len(ip.Payload()) > wire.UDPHeaderLen {
			payload = ip.Payload()[wire.UDPHeaderLen:]
		}
	case wire.ProtoShim:
		var sh shim.Header
		if sh.DecodeFromBytes(ip.Payload()) != nil {
			return 0
		}
		payload = sh.Payload()
	default:
		return 0
	}
	if !cloaked {
		return len(payload)
	}
	inner, cover, err := cloak.DecodeFrame(payload)
	if err != nil || cover {
		return 0
	}
	return len(inner)
}

// armsSamples runs one passive (AdvNone) cell and returns its flows as
// labeled feature vectors — the training and held-out evaluation sets.
func armsSamples(cfg ArmsConfig, mode ArmsMode, salt int64) ([]dpi.Sample, *armsRun, error) {
	run, err := runArmsCell(cfg, mode, AdvNone, nil, salt)
	if err != nil {
		return nil, nil, err
	}
	labelOf := make(map[netem.FlowKey]dpi.Class, len(run.keyOf))
	for i, k := range run.keyOf {
		labelOf[k] = run.classOf[i]
	}
	var samples []dpi.Sample
	run.table.Each(func(e *dpi.FlowEntry) {
		if class, ok := labelOf[e.Key]; ok {
			s := dpi.Sample{Class: class}
			e.Feat.Vector(&s.Vec)
			samples = append(samples, s)
		}
	})
	return samples, run, nil
}

// RunArms trains the dpi classifier on a labeled calibration run, then
// measures every (mode, adversary) cell with held-out seeds.
func RunArms(cfg ArmsConfig) (*ArmsStats, error) {
	cfg.fill()
	st := &ArmsStats{}

	// Calibration: encrypted traffic, passive tap, training labels from
	// the known flow->class assignment.
	samples, _, err := armsSamples(cfg, ModeEncrypted, 1)
	if err != nil {
		return nil, err
	}
	st.TrainedFlows = len(samples)
	cls, err := dpi.Train(samples)
	if err != nil {
		return nil, fmt.Errorf("eval: arms calibration: %w", err)
	}

	salt := int64(2)
	for _, adv := range []ArmsAdversary{AdvPortRule, AdvDPI} {
		for _, mode := range []ArmsMode{ModePlaintext, ModeEncrypted, ModeCloaked} {
			run, err := runArmsCell(cfg, mode, adv, cls, salt)
			if err != nil {
				return nil, fmt.Errorf("eval: arms cell %v/%v: %w", mode, adv, err)
			}
			st.Cells = append(st.Cells, run.cell)
			salt++
		}
	}
	return st, verifyArms(st)
}

// verifyArms asserts the arms-race ladder quantitatively; a violated
// rung is an experiment failure, the same contract E6 uses.
func verifyArms(st *ArmsStats) error {
	voip := int(trafficgen.AppVoIP)
	type check struct {
		ok  bool
		msg string
	}
	pp := st.Cell(ModePlaintext, AdvPortRule)
	pe := st.Cell(ModeEncrypted, AdvPortRule)
	dp := st.Cell(ModePlaintext, AdvDPI)
	de := st.Cell(ModeEncrypted, AdvDPI)
	dc := st.Cell(ModeCloaked, AdvDPI)
	pc := st.Cell(ModeCloaked, AdvPortRule)
	checks := []check{
		{pp.PortHits > 0 && pp.Goodput[voip] < 0.5,
			fmt.Sprintf("port rule vs plaintext: hits=%d voip goodput=%.2f, want degraded", pp.PortHits, pp.Goodput[voip])},
		{pe.PortHits == 0 && pe.Goodput[voip] > 0.9,
			fmt.Sprintf("port rule vs encrypted: hits=%d voip goodput=%.2f, want blinded (paper's claim)", pe.PortHits, pe.Goodput[voip])},
		{pc.PortHits == 0 && pc.Goodput[voip] > 0.9,
			fmt.Sprintf("port rule vs cloaked: hits=%d voip goodput=%.2f, want cloak to add no port visibility", pc.PortHits, pc.Goodput[voip])},
		{dp.Accuracy >= 0.9,
			fmt.Sprintf("dpi vs plaintext: accuracy=%.2f, want >= 0.90", dp.Accuracy)},
		{de.Accuracy >= 0.9,
			fmt.Sprintf("dpi vs encrypted: accuracy=%.2f, want >= 0.90 (encryption alone does not defeat dpi)", de.Accuracy)},
		{de.Goodput[voip] < 0.4,
			fmt.Sprintf("dpi vs encrypted: voip goodput=%.2f, want < 0.40 (classified and dropped)", de.Goodput[voip])},
		{dc.Accuracy <= 0.4,
			fmt.Sprintf("dpi vs cloaked: accuracy=%.2f, want <= 0.40 (near chance for 4 classes)", dc.Accuracy)},
		{dc.Goodput[voip] > 0.7,
			fmt.Sprintf("dpi vs cloaked: voip goodput=%.2f, want restored > 0.70", dc.Goodput[voip])},
		{dc.CloakOverhead > 1,
			fmt.Sprintf("cloak overhead=%.2fx, want measured cost > 1x", dc.CloakOverhead)},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("eval: arms race: %s", c.msg)
		}
	}
	return nil
}

func e7Result(cfg ArmsConfig) (*Result, error) {
	sw, err := runSweep(cfg.Workers, func(int) (*ArmsStats, error) { return RunArms(cfg) })
	if err != nil {
		return nil, err
	}
	st := sw.first()
	voip, video := int(trafficgen.AppVoIP), int(trafficgen.AppVideo)
	pp := st.Cell(ModePlaintext, AdvPortRule)
	pe := st.Cell(ModeEncrypted, AdvPortRule)
	dp := st.Cell(ModePlaintext, AdvDPI)
	de := st.Cell(ModeEncrypted, AdvDPI)
	dc := st.Cell(ModeCloaked, AdvDPI)
	rows := []Row{
		{Metric: "flows (4 app classes)", Paper: "-", Measured: fmt.Sprintf("%d", de.Flows),
			Note: fmt.Sprintf("classifier trained on %d held-out calibration flows", st.TrainedFlows)},
		{Metric: "port rule vs plaintext: voip goodput", Paper: "degraded",
			Measured: fmt.Sprintf("%.0f%%", 100*pp.Goodput[voip]),
			Note:     fmt.Sprintf("%d port matches: the strawman works on plaintext", pp.PortHits)},
		{Metric: "port rule vs encrypted: voip goodput", Paper: "restored",
			Measured: fmt.Sprintf("%.0f%%", 100*pe.Goodput[voip]),
			Note:     fmt.Sprintf("%d port matches: the paper's claim holds vs port rules", pe.PortHits)},
		{Metric: "dpi accuracy vs plaintext", Paper: "-",
			Measured: fmt.Sprintf("%.0f%%", 100*dp.Accuracy), Note: "statistical fingerprint, no ports needed"},
		{Metric: "dpi accuracy vs encrypted", Paper: ">= 90%",
			Measured: fmt.Sprintf("%.0f%%", 100*de.Accuracy),
			Note:     "sizes and timing survive encryption: the claim's limit"},
		{Metric: "dpi vs encrypted: voip goodput", Paper: "degraded",
			Measured: fmt.Sprintf("%.0f%%", 100*de.Goodput[voip]),
			Note:     fmt.Sprintf("%d classified-voip drops", de.DPIDrops)},
		{Metric: "dpi vs encrypted: video goodput", Paper: "throttled",
			Measured: fmt.Sprintf("%.0f%%", 100*de.Goodput[video]),
			Note:     fmt.Sprintf("%d token-bucket drops at 8 Mbps class rate", de.DPIPoliced)},
		{Metric: "dpi accuracy vs cloak", Paper: "<= 40% (chance=25%)",
			Measured: fmt.Sprintf("%.0f%%", 100*dc.Accuracy),
			Note:     "padding + tick grid + cover erase the fingerprint"},
		{Metric: "dpi vs cloak: voip goodput", Paper: "restored",
			Measured: fmt.Sprintf("%.0f%%", 100*dc.Goodput[voip]), Note: "classifier cannot find the target class"},
		{Metric: "cloak cost: wire bytes / real byte", Paper: "-",
			Measured: fmt.Sprintf("%.1fx", dc.CloakOverhead),
			Note:     fmt.Sprintf("+%v mean latency per frame", dc.CloakDelay.Round(time.Millisecond))},
	}
	return sw.result(rows, nil), nil
}

const armsTitle = "Arms race: statistical DPI vs cloaking at fan-out scale"

// DPIBench is the fixture behind BenchmarkDPIClassify and
// BenchmarkCloakFrame: a classifier trained on one reduced arms run,
// held-out labeled vectors with the accuracy measured on them, and the
// cloak overhead measured on a cloaked run — the numbers
// scripts/benchjson records as dpi_accuracy_uncloaked and
// cloak_goodput_overhead.
type DPIBench struct {
	Cls *dpi.Classifier
	// Samples are held-out labeled vectors (encrypted, uncloaked).
	Samples []dpi.Sample
	// Accuracy is the classifier's score on Samples.
	Accuracy float64
	// CloakOverhead is wire bytes per real byte under the E7 cloak.
	CloakOverhead float64
}

// NewDPIBench builds the fixture from three reduced passive runs:
// train, held-out evaluation, and cloaked cost measurement.
func NewDPIBench() (*DPIBench, error) {
	cfg := ArmsConfig{FlowsPerClass: 8, Seed: 42, Duration: 2 * time.Second}
	cfg.fill()
	train, _, err := armsSamples(cfg, ModeEncrypted, 1)
	if err != nil {
		return nil, err
	}
	cls, err := dpi.Train(train)
	if err != nil {
		return nil, err
	}
	heldOut, _, err := armsSamples(cfg, ModeEncrypted, 9)
	if err != nil {
		return nil, err
	}
	correct := 0
	for i := range heldOut {
		if got, _ := cls.ClassifyVec(&heldOut[i].Vec); got == heldOut[i].Class {
			correct++
		}
	}
	_, cloaked, err := armsSamples(cfg, ModeCloaked, 10)
	if err != nil {
		return nil, err
	}
	return &DPIBench{
		Cls:           cls,
		Samples:       heldOut,
		Accuracy:      float64(correct) / float64(len(heldOut)),
		CloakOverhead: cloaked.cell.CloakOverhead,
	}, nil
}
