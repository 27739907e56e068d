package eval

import (
	"bytes"
	"testing"

	"netneutral/internal/audit"
)

// TestE8AuditReduced checks the audit matrix on the reduced config;
// RunAudit self-verifies every verdict, and the headline cells are
// re-asserted explicitly so a failure names the broken rung.
func TestE8AuditReduced(t *testing.T) {
	st := reducedSweep[*AuditStats](t, "E8").first()
	if fpr := st.FalsePositiveRate(); fpr > 0.05 {
		t.Errorf("neutral false-positive rate = %.3f, want <= 0.05", fpr)
	}
	blatant := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved)
	if blatant.Summary.Power < 0.9 {
		t.Errorf("blatant dpi power = %.2f, want >= 0.90", blatant.Summary.Power)
	}
	if blatant.Summary.Localized != audit.SegmentBeyondBorder {
		t.Errorf("blatant dpi localized %v, want beyond-border", blatant.Summary.Localized)
	}
	if naive := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyNaive); naive.Summary.Power > 0.1 {
		t.Errorf("probe evasion vs naive bursts: power = %.2f, want defeated (~0)", naive.Summary.Power)
	}
	if inter := st.Cell(ISPDPIEvasion, ModeEncrypted, audit.StrategyInterleaved); inter.Summary.Power < 0.9 {
		t.Errorf("probe evasion vs interleaved: power = %.2f, want >= 0.90", inter.Summary.Power)
	}
	if pe := st.Cell(ISPPortRule, ModeEncrypted, audit.StrategyInterleaved); pe.Summary.Discriminating {
		t.Error("port rule vs encrypted probes ruled discriminating; encryption should have restored neutrality")
	}
	if stealth := st.Cell(ISPDPIStealth, ModeEncrypted, audit.StrategyInterleaved); !stealth.Summary.Discriminating {
		t.Errorf("stealth dpi not convicted by aggregate (power %.2f)", stealth.Summary.Power)
	}
}

// TestE8ReportsCarryTrials keeps the identity sweep over report bytes
// from passing trivially on empty reports: the wires carry real trials.
func TestE8ReportsCarryTrials(t *testing.T) {
	st := reducedSweep[*AuditStats](t, "E8").first()
	trials := e8Reduced.Trials
	cell := st.Cell(ISPNeutral, ModeEncrypted, audit.StrategyInterleaved)
	for v, w := range cell.ReportWire {
		r, err := audit.DecodeReport(w)
		if err != nil {
			t.Fatalf("vantage %d: %v", v, err)
		}
		if len(r.Trials) != trials {
			t.Fatalf("vantage %d: %d trials on the wire, want %d", v, len(r.Trials), trials)
		}
		if got := len(r.GoodputSamples(audit.RoleSuspect)); got != trials {
			t.Fatalf("vantage %d: %d usable suspect samples, want %d", v, got, trials)
		}
	}
}

// compareE8Runs compares two runs of the reduced E8 sweep cell by cell,
// on the report bytes and observation digests themselves rather than on
// their identity encoding.
func compareE8Runs(t *testing.T, a, b sweepRun[*AuditStats]) {
	t.Helper()
	if len(a.out.Cells) != len(b.out.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.out.Cells), len(b.out.Cells))
	}
	for c := range a.out.Cells {
		ca, cb := &a.out.Cells[c], &b.out.Cells[c]
		if len(ca.ReportWire) == 0 || len(ca.ReportWire) != len(cb.ReportWire) {
			t.Fatalf("cell %v/%v/%v: report counts %d vs %d", ca.ISP, ca.Mode, ca.Strategy, len(ca.ReportWire), len(cb.ReportWire))
		}
		for v := range ca.ReportWire {
			if !bytes.Equal(ca.ReportWire[v], cb.ReportWire[v]) {
				t.Fatalf("cell %v/%v/%v vantage %d: workers=%d and workers=%d differ (%d vs %d bytes)",
					ca.ISP, ca.Mode, ca.Strategy, v, a.workers, b.workers, len(ca.ReportWire[v]), len(cb.ReportWire[v]))
			}
		}
		if ca.Obs == nil || cb.Obs == nil || *ca.Obs != *cb.Obs {
			t.Fatalf("cell %v/%v/%v: observation digest differs:\n workers=%d: %+v\n workers=%d: %+v",
				ca.ISP, ca.Mode, ca.Strategy, a.workers, ca.Obs, b.workers, cb.Obs)
		}
		if ca.Obs.RecorderTicks == 0 || ca.Obs.FinalHash == 0 {
			t.Fatalf("cell %v/%v/%v: degenerate observation: %+v", ca.ISP, ca.Mode, ca.Strategy, ca.Obs)
		}
	}
	// The comparison must not be vacuous.
	if cell := a.out.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved); cell.Summary.Power == 0 {
		t.Fatal("blatant-dpi cell detected nothing; identity check would be meaningless")
	}
}

// TestE8WorkerIdentity checks that the reduced E8 sweep's workers=1 and
// workers=4 runs produce the same report bytes and observation in every
// cell.
func TestE8WorkerIdentity(t *testing.T) {
	runs := reducedSweep[*AuditStats](t, "E8").runs
	if len(runs) < 2 || runs[0].workers != 1 || runs[1].workers != 4 {
		t.Fatalf("E8 sweep does not start with workers 1 then 4: %+v", e8Reduced.Workers)
	}
	compareE8Runs(t, runs[0], runs[1])
}

// TestE8SeedReplayBitIdentical is the -seed discipline check: the
// reduced E8 sweep's closing workers=1 run replays its first run's seed
// and config, and must reproduce every cell's wire reports byte for byte.
func TestE8SeedReplayBitIdentical(t *testing.T) {
	runs := reducedSweep[*AuditStats](t, "E8").runs
	last := runs[len(runs)-1]
	if len(runs) < 2 || runs[0].workers != last.workers {
		t.Fatalf("E8 sweep has no same-config replay: %+v", e8Reduced.Workers)
	}
	compareE8Runs(t, runs[0], last)
}

// TestE8FullScale runs the registered experiment (which self-verifies
// every rung via verifyAudit).
func TestE8FullScale(t *testing.T) {
	if raceEnabled {
		t.Skip("full audit matrix is slow under race instrumentation")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runExp(t, "E8")
	if got := row(t, res, "probe-evading dpi vs naive bursts: power").Measured; got[0] != '0' {
		t.Errorf("naive power vs probe evasion = %s, want 0%%", got)
	}
	if got := row(t, res, "blatant dpi: localization").Measured; got != "beyond-border" {
		t.Errorf("localization = %s", got)
	}
}

func TestAuditBenchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fix, err := NewAuditBench()
	if err != nil {
		t.Fatal(err)
	}
	if fix.Power < 0.9 {
		t.Errorf("fixture detection power = %.2f, want >= 0.90", fix.Power)
	}
	if fix.FPR > 0.05 {
		t.Errorf("fixture false-positive rate = %.3f, want <= 0.05", fix.FPR)
	}
	if len(fix.Report.Trials) == 0 {
		t.Fatal("fixture report empty")
	}
	if v := audit.Decide(fix.Report, audit.DecisionConfig{}); !v.Discriminated {
		t.Error("fixture report (blatant dpi vantage) not ruled discriminated")
	}
}
