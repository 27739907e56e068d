package eval

import (
	"strings"
	"testing"
)

// TestE13BackboneReduced checks that the reduced continental sweep
// (TestExperimentIdentity compares its runs) exercised every traffic
// plane and the observation plane, so its identity is not vacuous.
func TestE13BackboneReduced(t *testing.T) {
	st := reducedSweep[*BackboneStats](t, "E13").first()
	if st.NeutSent == 0 || st.CrossSent == 0 {
		t.Fatalf("degenerate workload: neut=%d cross=%d", st.NeutSent, st.CrossSent)
	}
	if st.FluidBytes == 0 || st.FluidTicks == 0 {
		t.Fatalf("fluid layer idle: bytes=%d ticks=%d", st.FluidBytes, st.FluidTicks)
	}
	if st.Shards != 1+st.Metros {
		t.Fatalf("shards = %d, want core + one per metro = %d", st.Shards, 1+st.Metros)
	}
	requireObserved(t, st.Obs)
}

func TestE13FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("6x1000-host sweep is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E13")
	if got := row(t, res, "classifier hits at the core").Measured; got != "0" {
		t.Errorf("classifier hits = %s", got)
	}
	del := row(t, res, "cross-backbone packets delivered").Measured
	parts := strings.Split(del, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("delivery = %s, want all", del)
	}
	if row(t, res, "determinism").Measured != "verified" {
		t.Error("determinism row missing")
	}
}
