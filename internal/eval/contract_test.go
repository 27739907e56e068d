package eval

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"netneutral/internal/audit"
)

// reducedResults memoizes each scenario experiment's reduced run: the
// sweeps are most of this package's test time, and the per-experiment
// checks read the same outcomes the identity sweep compared.
var reducedResults = map[string]*Result{}

func reduced(t *testing.T, id string) *Result {
	t.Helper()
	if res, ok := reducedResults[id]; ok {
		return res
	}
	e, ok := ByID(id)
	if !ok || e.Reduced == nil {
		t.Fatalf("%s: no reduced config registered", id)
	}
	res, err := e.Reduced()
	if err != nil {
		t.Fatalf("%s reduced: %v", id, err)
	}
	reducedResults[id] = res
	return res
}

func reducedSweep[O any](t *testing.T, id string) *sweep[O] {
	t.Helper()
	sw, ok := reduced(t, id).sweep.(*sweep[O])
	if !ok {
		t.Fatalf("%s: sweep is %T", id, reduced(t, id).sweep)
	}
	return sw
}

// checkSweep re-checks a reduced sweep without trusting runSweep: it ran
// exactly the promised worker counts, and every run's outcome encodes to
// the same non-empty identity. It returns the first run's outcome.
func checkSweep[O any](t *testing.T, id string, workers []int) O {
	t.Helper()
	sw := reducedSweep[O](t, id)
	var got []int
	for _, r := range sw.runs {
		got = append(got, r.workers)
	}
	if !slices.Equal(got, workers) {
		t.Fatalf("%s swept workers %v, want %v", id, got, workers)
	}
	want := identity(sw.first())
	if len(want) == 0 {
		t.Fatalf("%s: empty identity", id)
	}
	for i, r := range sw.runs {
		if !bytes.Equal(identity(r.out), want) {
			t.Fatalf("%s: run %d (workers=%d) identity differs from run 0", id, i, r.workers)
		}
	}
	if m := row(t, reduced(t, id), "determinism").Measured; m != "verified" {
		t.Fatalf("%s: determinism row reads %q", id, m)
	}
	return sw.first()
}

// requireObserved rejects an absent or empty observation digest: the
// identity comparison must have covered real recorded state.
func requireObserved(t *testing.T, d *ObsDigest) {
	t.Helper()
	if d == nil || d.RecorderTicks == 0 || d.SeriesPoints == 0 || d.FlightSampled == 0 || d.FinalHash == 0 {
		t.Fatalf("degenerate observation digest: %+v", d)
	}
}

// TestExperimentIdentity is the determinism contract, one case per
// scenario experiment's reduced config: E6 and E8 at workers 1 vs 4 (E8
// then replays workers 1), E9 and E13 across 1/2/4 workers, and the
// serial E7 and E10 as same-seed replays. Observed configs fold the
// recorder rings, flight samples and final registry into the identity.
func TestExperimentIdentity(t *testing.T) {
	cases := map[string]func(t *testing.T){
		"E6": func(t *testing.T) {
			requireObserved(t, checkSweep[*MetroStats](t, "E6", []int{1, 4}).Obs)
		},
		"E7": func(t *testing.T) { checkSweep[*ArmsStats](t, "E7", []int{1, 1}) },
		"E8": func(t *testing.T) {
			st := checkSweep[*AuditStats](t, "E8", []int{1, 4, 1})
			for _, c := range st.Cells {
				if len(c.ReportWire) == 0 {
					t.Fatalf("cell %v/%v/%v: no reports", c.ISP, c.Mode, c.Strategy)
				}
				if c.Obs == nil || c.Obs.RecorderTicks == 0 || c.Obs.FinalHash == 0 {
					t.Fatalf("cell %v/%v/%v: degenerate observation: %+v", c.ISP, c.Mode, c.Strategy, c.Obs)
				}
			}
			if cell := st.Cell(ISPDPI, ModeEncrypted, audit.StrategyInterleaved); cell.Summary.Power == 0 {
				t.Fatal("blatant-dpi cell detected nothing; identity check would be meaningless")
			}
		},
		"E9": func(t *testing.T) {
			requireObserved(t, checkSweep[*MetroStats](t, "E9", []int{1, 2, 4}).Obs)
		},
		"E10": func(t *testing.T) { checkSweep[*RealProtoStats](t, "E10", []int{1, 1}) },
		"E13": func(t *testing.T) {
			requireObserved(t, checkSweep[*BackboneStats](t, "E13", []int{1, 2, 4}).Obs)
		},
	}
	scenarios := 0
	for _, e := range All() {
		if e.Reduced == nil {
			continue
		}
		scenarios++
		check, ok := cases[e.ID]
		if !ok {
			t.Errorf("scenario %s has no identity case", e.ID)
			continue
		}
		t.Run(e.ID, check)
	}
	if scenarios != len(cases) {
		t.Errorf("%d scenario experiments registered, %d identity cases", scenarios, len(cases))
	}
}

// TestIdentityEncoding pins what the identity covers: in every outcome
// type, changing any single field must change the encoding — each of the
// seven ObsDigest fields and every byte slice of an E8 report included —
// while the wall-clock fields must leave it unchanged.
func TestIdentityEncoding(t *testing.T) {
	wallClock := map[string]bool{
		"BuildTime": true, "RunTime": true, "EventsPerSec": true, "ForwardPps": true, "DeliveredPps": true,
	}
	for _, tc := range []struct {
		out              any
		wall, obsDigests int // leaves expected of each kind
	}{
		{&MetroStats{Obs: &ObsDigest{}}, 5, 1},
		{&ArmsStats{Cells: make([]ArmsCell, 1)}, 0, 0},
		{&AuditStats{Cells: []AuditCell{{
			Summary:    audit.Summary{Verdicts: make([]audit.Verdict, 1), Evidence: make(audit.EvidenceTrail, 1)},
			ReportWire: [][]byte{{0}, {}},
			Obs:        &ObsDigest{},
		}}}, 0, 1},
		{&RealProtoStats{}, 0, 0},
		{&BackboneStats{Obs: &ObsDigest{}}, 3, 1},
	} {
		base := identity(tc.out)
		wall, obsLeaves := 0, 0
		visitLeaves(t, reflect.ValueOf(tc.out).Elem(), reflect.TypeOf(tc.out).Elem().Name(), "",
			func(path, field string, leaf reflect.Value) {
				undo := perturb(leaf)
				changed := !bytes.Equal(identity(tc.out), base)
				undo()
				switch {
				case wallClock[field]:
					wall++
					if changed {
						t.Errorf("%s is wall clock but changes the identity", path)
					}
				case !changed:
					t.Errorf("%s does not change the identity", path)
				}
				if strings.Contains(path, ".Obs.") {
					obsLeaves++
				}
			})
		if wall != tc.wall {
			t.Errorf("%T: %d wall-clock fields, want %d", tc.out, wall, tc.wall)
		}
		if want := 7 * tc.obsDigests; obsLeaves != want {
			t.Errorf("%T: %d ObsDigest fields visited, want %d", tc.out, obsLeaves, want)
		}
		if !bytes.Equal(identity(tc.out), base) {
			t.Fatalf("%T: perturbations were not undone", tc.out)
		}
	}
}

// visitLeaves calls fn on every scalar, string and byte-slice field
// reachable from v, with its path and the name of its struct field.
func visitLeaves(t *testing.T, v reflect.Value, path, field string, fn func(path, field string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported outcome field cannot be perturbed", path, f.Name)
			}
			visitLeaves(t, v.Field(i), path+"."+f.Name, f.Name, fn)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			visitLeaves(t, v.Elem(), path, field, fn)
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			fn(path, field, v)
			return
		}
		for i := 0; i < v.Len(); i++ {
			visitLeaves(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", field, fn)
		}
	default:
		fn(path, field, v)
	}
}

// perturb changes one leaf value in place and returns its undo.
func perturb(v reflect.Value) func() {
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice: // bytes: flip the first, or grow an empty slice
		if v.Len() > 0 {
			b := append([]byte(nil), v.Bytes()...)
			b[0] ^= 1
			v.SetBytes(b)
		} else {
			v.SetBytes([]byte{0})
		}
	default:
		panic("perturb: unsupported kind " + v.Kind().String())
	}
	return func() { v.Set(old) }
}
