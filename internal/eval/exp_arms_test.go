package eval

import (
	"testing"

	"netneutral/internal/trafficgen"
)

// TestE7ArmsReduced checks the ladder on the reduced config, the size
// the default test run (and -race) and CI use; RunArms self-verifies
// every rung, and the headline ones are re-asserted so a failure names
// the broken rung.
func TestE7ArmsReduced(t *testing.T) {
	st := reducedSweep[*ArmsStats](t, "E7").first()
	voip := int(trafficgen.AppVoIP)

	pe := st.Cell(ModeEncrypted, AdvPortRule)
	if pe.PortHits != 0 {
		t.Errorf("port rule fired %d times on encrypted traffic", pe.PortHits)
	}
	de := st.Cell(ModeEncrypted, AdvDPI)
	if de.Accuracy < 0.9 {
		t.Errorf("dpi accuracy on encrypted = %.2f, want >= 0.90", de.Accuracy)
	}
	if de.Goodput[voip] >= 0.4 {
		t.Errorf("dpi left encrypted voip goodput at %.2f, want degraded", de.Goodput[voip])
	}
	dc := st.Cell(ModeCloaked, AdvDPI)
	if dc.Accuracy > 0.4 {
		t.Errorf("dpi accuracy under cloak = %.2f, want <= 0.40", dc.Accuracy)
	}
	if dc.Goodput[voip] <= 0.7 {
		t.Errorf("cloaked voip goodput = %.2f, want restored", dc.Goodput[voip])
	}
	if dc.CloakOverhead <= 1 || dc.CloakDelay <= 0 {
		t.Errorf("cloak cost not measured: overhead=%.2fx delay=%v", dc.CloakOverhead, dc.CloakDelay)
	}
}

// TestE7FullScale runs the registered experiment (which self-verifies
// every ladder rung via verifyArms).
func TestE7FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("full arms matrix is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E7")
	if got := row(t, res, "dpi accuracy vs cloak").Measured; got != "25%" {
		t.Errorf("cloaked accuracy = %s, want 25%% (chance)", got)
	}
}

func TestDPIBenchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b, err := NewDPIBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Samples) == 0 {
		t.Fatal("no held-out samples")
	}
	if b.Accuracy < 0.9 {
		t.Errorf("held-out accuracy = %.2f, want >= 0.90", b.Accuracy)
	}
	if b.CloakOverhead <= 1 {
		t.Errorf("cloak overhead = %.2f, want > 1", b.CloakOverhead)
	}
}
