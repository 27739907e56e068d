package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"netneutral/internal/netem"
)

// The tracer records spans around calls into each layer's public
// functions, from the benchmark's own files: op spans, the engine entry
// points (Run/RunFor, ProcessBatch), and the handlers, hooks and senders
// the benchmark installs and the engine calls back into.
//
// Every wrapped boundary keeps exact call counts and summed durations;
// spans are kept for every op and for a deterministic 1-in-N sample of
// callback calls. Each buffer belongs to one node (or one goroutine), so
// shard workers running in parallel never write the same buffer. Spans
// stay in memory until the run ends and are then written as Chrome
// trace-event JSON.

// span is one recorded interval, in nanoseconds since the tracer epoch.
type span struct {
	name       string
	start, end int64
	id, parent uint64
	op         int64
}

// spanBuf is one node's (or goroutine's) span buffer and boundary tally.
type spanBuf struct {
	t     *tracer
	tid   int
	label string
	layer string
	calls uint64
	ns    int64
	spans []span
}

type tracer struct {
	epoch time.Time
	bufs  []*spanBuf

	// parent and op identify the span callbacks currently nest under;
	// written by the driving goroutine around engine calls.
	parent atomic.Uint64
	op     atomic.Int64
}

// sampleEvery is the callback span sampling period.
const sampleEvery = 64

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// buf registers a new buffer. Call during set-up, from one goroutine.
func (t *tracer) buf(layer, label string) *spanBuf {
	b := &spanBuf{t: t, tid: len(t.bufs) + 1, label: label, layer: layer}
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enter makes id (of op) the parent of callbacks until the next enter.
func (t *tracer) enter(id uint64, op int64) {
	t.parent.Store(id)
	t.op.Store(op)
}

// record appends a span unconditionally and returns its id.
func (b *spanBuf) record(name string, start, end int64, parent uint64, op int64) uint64 {
	id := uint64(b.tid)<<40 | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{name: name, start: start, end: end, id: id, parent: parent, op: op})
	return id
}

// open starts a span whose end is set by close; it returns the span's
// index and id so callbacks can name it as their parent meanwhile.
func (b *spanBuf) open(name string, start int64, parent uint64, op int64) (int, uint64) {
	return len(b.spans), b.record(name, start, start, parent, op)
}

func (b *spanBuf) close(i int, end int64) { b.spans[i].end = end }

// call tallies one callback and keeps every sampleEvery-th as a span.
func (b *spanBuf) call(name string, start, end int64) {
	b.calls++
	b.ns += end - start
	if b.calls%sampleEvery == 1 {
		b.record(name, start, end, b.t.parent.Load(), b.t.op.Load())
	}
}

// wrapHandler, wrapHook and wrapEmit time one callback boundary.
func (b *spanBuf) wrapHandler(name string, h netem.Handler) netem.Handler {
	return func(now time.Time, pkt []byte) {
		t0 := b.t.now()
		h(now, pkt)
		b.call(name, t0, b.t.now())
	}
}

func (b *spanBuf) wrapHook(name string, h netem.TransitHook) netem.TransitHook {
	return func(now time.Time, node *netem.Node, pkt []byte) netem.Verdict {
		t0 := b.t.now()
		v := h(now, node, pkt)
		b.call(name, t0, b.t.now())
		return v
	}
}

func (b *spanBuf) wrapEmit(name string, emit func(seq uint64)) func(seq uint64) {
	return func(seq uint64) {
		t0 := b.t.now()
		emit(seq)
		b.call(name, t0, b.t.now())
	}
}

// tally is a boundary count and its summed duration.
type tally struct {
	calls uint64
	ns    int64
}

// tallies sums the exact boundary tallies per layer; nil on a nil tracer.
func (t *tracer) tallies() layerTallies {
	if t == nil {
		return nil
	}
	out := make(layerTallies)
	for _, b := range t.bufs {
		x := out[b.layer]
		x.calls += b.calls
		x.ns += b.ns
		out[b.layer] = x
	}
	return out
}

type layerTallies map[string]tally

// since is the per-layer difference from an earlier read.
func (lt layerTallies) since(earlier layerTallies) layerTallies {
	out := make(layerTallies, len(lt))
	for l, x := range lt {
		e := earlier[l]
		out[l] = tally{calls: x.calls - e.calls, ns: x.ns - e.ns}
	}
	return out
}

// selfTimes computes, per span name, the summed self time of the recorded
// spans: each span's duration minus the part of it its children cover.
// Callback children are sampled, so this is the sampled view; the exact
// per-boundary sums are in tallies.
func (t *tracer) selfTimes() map[string]int64 {
	children := make(map[uint64][][2]int64)
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.parent != 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
		}
	}
	self := make(map[string]int64)
	for _, b := range t.bufs {
		for _, s := range b.spans {
			self[s.name] += s.end - s.start - covered(s.start, s.end, children[s.id])
		}
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// printSummary writes the exact per-layer tallies and the sampled
// per-span self times.
func (t *tracer) printSummary(w io.Writer, wall time.Duration) {
	layers := map[string]bool{}
	for _, b := range t.bufs {
		if b.calls > 0 {
			layers[b.layer] = true
		}
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace: exact boundary tallies over %.3fs of traced ops\n", wall.Seconds())
	all := t.tallies()
	for _, l := range names {
		x := all[l]
		fmt.Fprintf(w, "trace:   %-10s calls=%d time=%.3fs ns/call=%.1f\n",
			l, x.calls, time.Duration(x.ns).Seconds(), ratio(float64(x.ns), float64(x.calls)))
	}
	self := t.selfTimes()
	spanNames := make([]string, 0, len(self))
	for n := range self {
		spanNames = append(spanNames, n)
	}
	sort.Strings(spanNames)
	fmt.Fprintf(w, "trace: self time of recorded spans (callbacks sampled 1 in %d)\n", sampleEvery)
	for _, n := range spanNames {
		fmt.Fprintf(w, "trace:   %-22s self=%.3fs\n", n, time.Duration(self[n]).Seconds())
	}
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every buffer's spans as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	for _, b := range t.bufs {
		if len(b.spans) == 0 {
			continue
		}
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: b.tid,
			Args: map[string]any{"name": b.layer + " " + b.label}}); err != nil {
			f.Close()
			return err
		}
		for _, s := range b.spans {
			if err := emit(chromeEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: b.tid,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if _, err := io.WriteString(w, "]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
