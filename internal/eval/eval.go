// Package eval implements the reproduction harness: one registered
// experiment per table, figure, or headline number in the paper, each
// producing printable rows of paper-vs-measured values. The harness is
// shared by cmd/neutbench (which prints the rows) and the top-level
// benchmark suite (which re-measures the micro numbers under testing.B).
// The scenario experiments (E6-E10, E13) share one determinism contract,
// described in contract.go.
//
// See README.md ("Reproducing the paper's numbers") for the experiment
// index; BENCH_*.json snapshots record measured results per PR.
package eval

import (
	"crypto/rand"
	"fmt"
	"io"
	mathrand "math/rand"
	"net/netip"
	"strings"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/endhost"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Row is one reported metric.
type Row struct {
	Metric   string
	Paper    string // what the paper reports ("-" when the paper gives no number)
	Measured string
	Note     string
}

// Result is the outcome of one experiment.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// Wall holds the rows whose values depend on wall-clock time
	// (rates, build and run times). neutbench prints them on stderr, so
	// a scenario experiment's stdout replays byte for byte.
	Wall []Row
	// sweep is a scenario experiment's *sweep[O] (nil otherwise).
	sweep any
}

// String renders the deterministic rows as an aligned table.
func (r *Result) String() string { return renderRows(r.ID+" — "+r.Title, r.Rows) }

// WallString renders the wall-clock rows, or "" when there are none.
func (r *Result) WallString() string {
	if len(r.Wall) == 0 {
		return ""
	}
	return renderRows(r.ID+" — wall clock", r.Wall)
}

func renderRows(header string, rows []Row) string {
	var b strings.Builder
	b.WriteString(header + "\n")
	w1, w2, w3 := len("metric"), len("paper"), len("measured")
	for _, row := range rows {
		w1, w2, w3 = max(w1, len(row.Metric)), max(w2, len(row.Paper)), max(w3, len(row.Measured))
	}
	fmt.Fprintf(&b, "  %-*s  %-*s  %-*s  %s\n", w1, "metric", w2, "paper", w3, "measured", "note")
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-*s  %-*s  %-*s  %s\n", w1, row.Metric, w2, row.Paper, w3, row.Measured, row.Note)
	}
	return b.String()
}

// Experiment is a registered reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
	// Reduced runs a scenario experiment's reduced config, the size
	// tests and CI use (nil for the other experiments).
	Reduced func() (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Key-setup throughput (§4: 24.4 kpps)", Run: RunE1},
		{ID: "E2", Title: "Sources served per master-key epoch (§4: 88M/hour)", Run: RunE2},
		{ID: "E3", Title: "Data path vs vanilla forwarding (§4: 422 vs 600 kpps)", Run: RunE3},
		{ID: "E4", Title: "Raw crypto operation rate (§4: 2.35M ops/s)", Run: RunE4},
		{ID: "E5", Title: "Sharded stateless data plane (anycast scaling in-process)", Run: RunE5},
		scenario("E6", metroTitle, e6Result, e6Full, e6Reduced),
		scenario("E7", armsTitle, e7Result, e7Full, e7Reduced),
		scenario("E8", auditTitle, e8Result, e8Full, e8Reduced),
		scenario("E9", parScaleTitle, e9Result, e9Full, e9Reduced),
		scenario("E10", realProtoTitle, e10Result, e10Full, e10Reduced),
		scenario("E13", backboneTitle, e13Result, e13Full, e13Reduced),
		{ID: "F1", Title: "Figure 1: customer indistinguishability inside a discriminatory ISP", Run: RunF1},
		{ID: "F2", Title: "Figure 2: protocol walk with eavesdropper assertions", Run: RunF2},
		{ID: "A1", Title: "§3.2 ablation: chosen key setup vs certified-pubkey alternative", Run: RunA1},
		{ID: "A2", Title: "§3.2 ablation: offloading RSA work to customers", Run: RunA2},
		{ID: "A3", Title: "§5: neutralizer vs onion-routing baseline", Run: RunA3},
		{ID: "A4", Title: "§1 motivation: targeted VoIP degradation and the neutralizer cure", Run: RunA4},
		{ID: "A5", Title: "§3.6: key-setup flood and pushback", Run: RunA5},
		{ID: "A6", Title: "§3.5: multi-homed neutralizer selection strategies", Run: RunA6},
		{ID: "A7", Title: "§3.1: DNS bootstrap under query discrimination", Run: RunA7},
		{ID: "A8", Title: "§3.4: tiered service and guaranteed service coexistence", Run: RunA8},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared benchmark environment --------------------------------------

// Paper constants for the fixed benchmark scenario.
var (
	benchStart   = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	benchAnycast = netip.MustParseAddr("10.200.0.1")
	benchSrc     = netip.MustParseAddr("172.16.1.10")
	benchDst     = netip.MustParseAddr("10.10.0.5")
	benchCustNet = netip.MustParsePrefix("10.10.0.0/16")
)

// BenchEnv packages a neutralizer and pre-built packets for the
// micro-experiments and the testing.B suite.
type BenchEnv struct {
	Neut      *core.Neutralizer
	Sched     *keys.Schedule
	ClientKey *lightrsa.PrivateKey
	AltKey    *lightrsa.PrivateKey
	cfg       core.Config

	// SetupPkt is a Figure 2(a) key-setup request.
	SetupPkt []byte
	// DataPkt is a 64-byte-payload forward data packet with a valid
	// session key (the paper's 112-byte experiment; 124 bytes in our
	// encoding).
	DataPkt []byte
	// ReturnPkt is a customer return packet.
	ReturnPkt []byte
	// AltPkt is an alternative-mode (§3.2) first packet.
	AltPkt []byte
	// VanillaPkt is a plain IPv4/UDP packet of the same payload size for
	// the forwarding baseline.
	VanillaPkt []byte

	Nonce keys.Nonce
	Ks    aesutil.Key
	Epoch keys.Epoch
}

// NewBenchEnv builds the environment. offload configures helper
// delegation; altMode installs the alternative-design identity.
func NewBenchEnv(offload bool, altMode bool) (*BenchEnv, error) {
	sched := keys.NewSchedule(aesutil.Key{7}, benchStart, time.Hour)
	cfg := core.Config{
		Schedule:   sched,
		Anycast:    benchAnycast,
		IsCustomer: func(a netip.Addr) bool { return benchCustNet.Contains(a) },
		Clock:      func() time.Time { return benchStart.Add(10 * time.Minute) },
	}
	env := &BenchEnv{Sched: sched}
	var err error
	env.ClientKey, err = lightrsa.GenerateKey(rand.Reader, lightrsa.DefaultBits)
	if err != nil {
		return nil, err
	}
	if offload {
		cfg.Offload = &core.OffloadPolicy{Helpers: []netip.Addr{benchDst}}
	}
	if altMode {
		env.AltKey, err = lightrsa.GenerateKey(rand.Reader, lightrsa.DefaultBits)
		if err != nil {
			return nil, err
		}
		cfg.AltIdentity = env.AltKey
	}
	env.Neut, err = core.New(cfg)
	if err != nil {
		return nil, err
	}
	env.cfg = cfg

	// Credentials as the stateless derivation would produce them.
	env.Epoch = sched.EpochAt(cfg.Clock())
	env.Nonce = keys.Nonce{1, 2, 3, 4, 5, 6, 7, 8}
	env.Ks, err = sched.SessionKey(env.Epoch, env.Nonce, benchSrc)
	if err != nil {
		return nil, err
	}

	env.SetupPkt, err = buildShim(benchSrc, benchAnycast, &shim.Header{
		Type: shim.TypeKeySetupRequest, PublicKey: env.ClientKey.PublicKey.Marshal(),
	}, nil)
	if err != nil {
		return nil, err
	}
	blk, err := aesutil.EncryptAddr(env.Ks, benchDst, [8]byte{9})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 64)
	env.DataPkt, err = buildShim(benchSrc, benchAnycast, &shim.Header{
		Type: shim.TypeData, InnerProto: wire.ProtoUDP,
		Epoch: env.Epoch, Nonce: env.Nonce, HiddenAddr: blk,
	}, payload)
	if err != nil {
		return nil, err
	}
	env.ReturnPkt, err = buildShim(benchDst, benchAnycast, &shim.Header{
		Type: shim.TypeReturn, InnerProto: wire.ProtoUDP,
		Epoch: env.Epoch, Nonce: env.Nonce, ClearAddr: benchSrc,
	}, payload)
	if err != nil {
		return nil, err
	}
	if altMode {
		d4 := benchDst.As4()
		ct, err := env.AltKey.PublicKey.Encrypt(rand.Reader, append(d4[:], 1, 2, 3, 4, 5, 6, 7, 8))
		if err != nil {
			return nil, err
		}
		env.AltPkt, err = buildShim(benchSrc, benchAnycast, &shim.Header{
			Type: shim.TypeAltData, InnerProto: wire.ProtoUDP, Ciphertext: ct,
		}, payload)
		if err != nil {
			return nil, err
		}
	}
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 255, Protocol: wire.ProtoUDP, Src: benchSrc, Dst: benchDst},
		&wire.UDP{SrcPort: 4000, DstPort: 5000},
	); err != nil {
		return nil, err
	}
	env.VanillaPkt = buf.Bytes()
	return env, nil
}

// NeutralizerConfig returns the configuration the bench neutralizer was
// built with, so callers can construct pools of interchangeable replicas
// against the same schedule.
func (e *BenchEnv) NeutralizerConfig() core.Config { return e.cfg }

// DataBatch builds n forward-path data packets drawn from nSources
// distinct outside sources (cycling), each carrying a hidden customer
// destination encrypted under the session key the stateless neutralizer
// will re-derive from the packet alone. It feeds the sharded-data-plane
// experiment (E5), BenchmarkProcessBatch, and the fuzz seed corpora.
func (e *BenchEnv) DataBatch(nSources, n int) ([][]byte, error) {
	if nSources <= 0 || nSources > 0xffff {
		return nil, fmt.Errorf("eval: bad source count %d", nSources)
	}
	payload := make([]byte, 64)
	pkts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		s := i % nSources
		src := netip.AddrFrom4([4]byte{172, 16, byte(s >> 8), byte(s)})
		var nonce keys.Nonce
		nonce[0] = byte(s >> 8)
		nonce[1] = byte(s)
		nonce[7] = 1
		ks, err := e.Sched.SessionKey(e.Epoch, nonce, src)
		if err != nil {
			return nil, err
		}
		blk, err := aesutil.EncryptAddr(ks, benchDst, [8]byte{byte(i), byte(i >> 8)})
		if err != nil {
			return nil, err
		}
		pkt, err := buildShim(src, benchAnycast, &shim.Header{
			Type: shim.TypeData, InnerProto: wire.ProtoUDP,
			Epoch: e.Epoch, Nonce: nonce, HiddenAddr: blk,
		}, payload)
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, pkt)
	}
	return pkts, nil
}

// FreshVanilla returns a copy of the vanilla packet (VanillaForward
// mutates TTL in place).
func (e *BenchEnv) FreshVanilla() []byte {
	out := make([]byte, len(e.VanillaPkt))
	copy(out, e.VanillaPkt)
	return out
}

func buildShim(src, dst netip.Addr, sh *shim.Header, payload []byte) ([]byte, error) {
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+shim.HeaderLen+96, len(payload))
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

// measureRate runs fn n times and returns operations/second.
func measureRate(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(n) / el
}

func kpps(rate float64) string { return fmt.Sprintf("%.1f kpps", rate/1e3) }

// ---- netem glue ---------------------------------------------------------

// AttachNeutralizer wires a core.Neutralizer into a netem node: shim
// packets delivered to the node are processed and the outputs sent back
// into the fabric.
func AttachNeutralizer(node *netem.Node, n *core.Neutralizer) {
	node.SetHandler(func(now time.Time, pkt []byte) {
		outs, err := n.Process(pkt)
		if err != nil {
			return
		}
		for _, o := range outs {
			_ = node.Send(o.Pkt)
		}
	})
}

// AttachHost wires an endhost.Host into a netem node.
func AttachHost(node *netem.Node, h *endhost.Host) {
	node.SetHandler(h.HandlePacket)
}

// HostTransport returns an endhost Transport that originates packets at
// the given node.
func HostTransport(node *netem.Node) endhost.Transport {
	return func(pkt []byte) error { return node.Send(pkt) }
}

// detRand returns a deterministic entropy source for reproducible
// simulation experiments.
func detRand(seed int64) io.Reader { return mathrand.New(mathrand.NewSource(seed)) }
