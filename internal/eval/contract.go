package eval

// The determinism contract of the scenario experiments: E6 (metro), E7
// (arms race), E8 (audit), E9 (parallel scaling), E10 (real protocols)
// and E13 (backbone). Each carries one full and one reduced config, and
// each config lists the worker counts of its sweep. The sweep runs the
// experiment once per entry and fails unless every run's identity — the
// canonical encoding of its outcome, observation digest and audit report
// bytes included — equals the first run's byte for byte. E7 and E10 run
// on one simulator thread, so their sweep entries are same-seed replays.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"
)

// scenario registers a scenario experiment: Run executes the full
// config, Reduced the reduced one.
func scenario[C any](id, title string, run func(C) (*Result, error), full, reduced C) Experiment {
	exp := func(cfg C) func() (*Result, error) {
		return func() (*Result, error) {
			res, err := run(cfg)
			if err != nil {
				return nil, err
			}
			res.ID, res.Title = id, title
			return res, nil
		}
	}
	return Experiment{ID: id, Title: title, Run: exp(full), Reduced: exp(reduced)}
}

// identity is the canonical deterministic encoding of an outcome: every
// field in declaration order, recursively. Integers and float bits are
// little-endian uint64s, bools one byte; strings and slices carry a
// length prefix and pointers a presence byte. Fields tagged
// `identity:"-"` hold wall-clock figures and are left out. Outcome
// types hold no maps, interfaces or funcs, which have no canonical
// encoding.
func identity(out any) []byte { return appendIdentity(nil, reflect.ValueOf(out)) }

func appendIdentity(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendIdentity(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendIdentity(append(b, 1), v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Tag.Get("identity") != "-" {
				b = appendIdentity(b, v.Field(i))
			}
		}
		return b
	}
	panic("eval: no canonical identity encoding for " + v.Type().String())
}

// sweepRun is one run of a sweep.
type sweepRun[O any] struct {
	workers int
	out     O
	wall    time.Duration // the whole run, build included
}

// sweep is a passed identity sweep: its runs in config order and the
// identity they share.
type sweep[O any] struct {
	runs     []sweepRun[O]
	identity []byte
}

// runSweep runs run once per worker count and fails unless every run's
// identity equals the first run's.
func runSweep[O any](workers []int, run func(workers int) (O, error)) (*sweep[O], error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("eval: empty worker sweep")
	}
	sw := &sweep[O]{}
	for i, w := range workers {
		start := time.Now()
		out, err := run(w)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		wall := time.Since(start)
		id := identity(out)
		if i == 0 {
			sw.identity = id
		} else if !bytes.Equal(id, sw.identity) {
			at := 0
			for at < min(len(id), len(sw.identity)) && id[at] == sw.identity[at] {
				at++
			}
			return nil, fmt.Errorf("eval: determinism violated: run %d (workers=%d) differs from run 0 (workers=%d) at identity byte %d of %d",
				i, w, workers[0], at, len(sw.identity))
		}
		sw.runs = append(sw.runs, sweepRun[O]{workers: w, out: out, wall: wall})
	}
	return sw, nil
}

// first is the first run's outcome; every run's identity equals it.
func (sw *sweep[O]) first() O { return sw.runs[0].out }

// result wraps the experiment's rows with the sweep: the determinism
// row when the sweep compared two or more runs, and the sweep itself
// for tests.
func (sw *sweep[O]) result(rows, wall []Row) *Result {
	if len(sw.runs) > 1 {
		ws := make([]string, len(sw.runs))
		for i, r := range sw.runs {
			ws[i] = fmt.Sprint(r.workers)
		}
		h := newFNV()
		h.bytes(sw.identity)
		rows = append(rows, Row{Metric: "determinism", Paper: "bit-identical", Measured: "verified",
			Note: fmt.Sprintf("%d runs at workers %s: equal %d-byte outcome encodings (fnv64 %016x)",
				len(sw.runs), strings.Join(ws, "/"), len(sw.identity), h.sum())})
	}
	return &Result{Rows: rows, Wall: wall, sweep: sw}
}
