package main

import (
	"net/netip"
	"testing"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

func flowHash(t *testing.T, src, dst string, proto uint8) uint64 {
	t.Helper()
	k, err := netem.FlowKeyFrom(netip.MustParseAddr(src), netip.MustParseAddr(dst), proto)
	if err != nil {
		t.Fatal(err)
	}
	return netem.FlowKeyHash(k)
}

func TestParseFlowSpec(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		fraction float64  // SampleFlows on success
		tags     []uint64 // tagged flow hashes on success
	}{
		{spec: "all", fraction: 1},
		{spec: "1", fraction: 1},
		{spec: "0.25", fraction: 0.25},
		{spec: "+0.5", fraction: 0.5},
		{spec: "1e-3", fraction: 0.001},
		{spec: "5e-324", fraction: 5e-324},
		{spec: "0xDEADBEEF", tags: []uint64{0xdeadbeef}},
		{spec: "0Xffffffffffffffff", tags: []uint64{1<<64 - 1}},
		{spec: "10.0.0.1-10.0.1.5", tags: []uint64{flowHash(t, "10.0.0.1", "10.0.1.5", wire.ProtoUDP)}},
		{spec: "10.0.0.1-10.0.1.5/6", tags: []uint64{flowHash(t, "10.0.0.1", "10.0.1.5", 6)}},
	} {
		cfg, tags, err := parseFlowSpec(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if cfg.SampleFlows != tc.fraction || len(tags) != len(tc.tags) || (len(tags) == 1 && tags[0] != tc.tags[0]) {
			t.Errorf("%q: fraction %v tags %x, want %v %x", tc.spec, cfg.SampleFlows, tags, tc.fraction, tc.tags)
		}
	}
	for _, spec := range []string{
		"", "none", "ALL",
		"0", "-0", "1.0000001", "2", "-0.5", "1e-400",
		"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity",
		"0x", "0xZZ", "0x1p-2", "0x10000000000000000",
		"10.0.0.1", "10.0.0.1-", "-10.0.0.1", "10.0.0.1-nope", "::1-::2",
		"10.0.0.1-10.0.1.5/", "10.0.0.1-10.0.1.5/256", "10.0.0.1-10.0.1.5/udp",
	} {
		if cfg, tags, err := parseFlowSpec(spec); err == nil {
			t.Errorf("%q accepted: fraction %v tags %x", spec, cfg.SampleFlows, tags)
		}
	}
}

// FuzzParseFlowSpec: no spec panics the parser, and any fraction it
// accepts lies in (0,1].
func FuzzParseFlowSpec(f *testing.F) {
	for _, s := range []string{"all", "0.01", "NaN", "0xabc", "10.0.0.1-10.0.1.5/17", "1e-3", "-Inf"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, tags, err := parseFlowSpec(spec)
		if err != nil {
			return
		}
		if cfg.SampleFlows == 0 && len(tags) == 0 {
			t.Fatalf("%q accepted but selects nothing", spec)
		}
		if cfg.SampleFlows != 0 && !(cfg.SampleFlows > 0 && cfg.SampleFlows <= 1) {
			t.Fatalf("%q accepted with fraction %v outside (0,1]", spec, cfg.SampleFlows)
		}
	})
}
