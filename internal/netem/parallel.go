package netem

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Conservative parallel execution. The engine runs sharded simulations
// in epochs: at each barrier the coordinator finds the earliest pending
// event time `next` across all shards and opens the window
// [next, next+lookahead). Every shard independently executes its own
// events inside the window; any packet it sends toward another shard
// arrives at least `lookahead` later — the minimum propagation delay of
// all cross-shard links — so the arrival provably lands at or beyond
// the window's end and can be exchanged at the barrier instead of
// interrupting the receiver. Incoming events are merged in (time,
// source shard, source sequence) order and re-sequenced locally, a pure
// function of event content. Shards therefore evolve identically
// whether the per-epoch phases run on one worker or many: `-seed` replay
// is bit-identical at every worker count.

// noLookahead marks a plan with no cross-shard links: windows are
// unbounded and every shard drains independently.
const noLookahead = time.Duration(1<<63 - 1)

// refreshPlan recomputes the execution plan after a topology change:
// whether any node lives beyond shard 0, and the conservative lookahead
// (minimum cross-shard link propagation delay).
func (s *Simulator) refreshPlan() {
	if !s.planDirty {
		return
	}
	s.planDirty = false
	s.multi = false
	s.lookahead = noLookahead
	for _, n := range s.nodeList {
		if n.sh.id != 0 {
			s.multi = true
		}
		for _, l := range n.links {
			if n != l.a {
				continue // visit each link once
			}
			for _, d := range l.dirs {
				if d.from.sh == d.to.sh {
					continue
				}
				if d.cfg.Delay <= 0 {
					panic(fmt.Sprintf(
						"netem: link %s->%s crosses shards %d->%d with no propagation delay; conservative parallel execution needs Delay > 0 on every cross-shard link",
						d.from.Name, d.to.Name, d.from.sh.id, d.to.sh.id))
				}
				if d.cfg.Delay < s.lookahead {
					s.lookahead = d.cfg.Delay
				}
			}
		}
	}
	la := int64(s.lookahead)
	if s.lookahead == noLookahead {
		la = 0
	}
	s.met.lookahead.Set(la)
}

// runLimit is the engine behind Run/RunUntil: it executes events with
// at <= limit (math.MaxInt64 for Run), then, when hasLimit, advances
// clocks to limit.
func (s *Simulator) runLimit(limit int64, hasLimit bool) {
	s.refreshPlan()
	if !s.multi {
		// Classic serial loop on shard 0: the pre-shard engine,
		// unchanged down to event ordering.
		sh := s.shards[0]
		sh.runWindow(limit)
		if hasLimit && sh.now < limit {
			sh.now = limit
		}
		// Keep the committed floor in sync so a later shard assignment
		// (flipping Now() to the committed clock) never rewinds time.
		s.committed = max(s.committed, sh.now)
		// Serial runs have no epoch barriers; the end of a Run/RunUntil
		// call is the quiescent point observers sample at.
		s.barrierTick(sh.now)
		return
	}
	s.runEpochs(limit, hasLimit)
}

// runEpochs is the sharded epoch loop.
func (s *Simulator) runEpochs(limit int64, hasLimit bool) {
	workers := s.workers
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	s.running = true
	s.parallelRun = workers > 1
	defer func() { s.running = false; s.parallelRun = false }()
	// Sparse epochs (drain tails, bursty idle periods) are cheaper to
	// run inline than to fan out: below this many pending events per
	// worker, goroutine spawn/join overhead dominates the work. The
	// choice is pure execution strategy — results are identical either
	// way — so the threshold cannot affect determinism.
	const minEventsPerWorker = 32
	for {
		next, pending, ok := s.nextEventTime()
		if !ok || next > limit {
			break
		}
		epochStart := time.Now()
		s.committed = max(s.committed, next)
		// The window is [next, next+lookahead), capped at limit
		// (RunUntil is inclusive); with no cross-shard links, or past
		// the end of representable time, it is unbounded.
		last := int64(math.MaxInt64)
		if la := int64(s.lookahead); s.lookahead != noLookahead && next <= math.MaxInt64-la { // overflow guard
			last = next + la - 1
		}
		last = min(last, limit)
		if workers <= 1 || pending < minEventsPerWorker*workers {
			for _, sh := range s.shards {
				sh.runWindow(last)
			}
			for _, sh := range s.shards {
				sh.mergeIncoming()
			}
		} else {
			s.parallelPhase(workers, phaseRun, last)
			s.parallelPhase(workers, phaseMerge, 0)
		}
		s.flushTraces()
		s.met.epochs.Inc()
		s.met.epochWall.ObserveDuration(time.Since(epochStart))
		// Observation piggybacks on the barrier that already exists:
		// committed (the window start) is the deterministic virtual
		// timestamp of this epoch.
		s.barrierTick(s.committed)
	}
	if hasLimit {
		for _, sh := range s.shards {
			sh.now = max(sh.now, limit)
		}
		s.committed = max(s.committed, limit)
	} else {
		for _, sh := range s.shards {
			s.committed = max(s.committed, sh.now)
		}
	}
	// Final tick at the post-run clock so observers sample the end state
	// even when the tail epoch was interval-gated away.
	s.barrierTick(s.committed)
}

// nextEventTime finds the earliest pending event across shards, along
// with the total pending count (the parallel-vs-inline heuristic).
// Called only at barriers, when all outboxes are drained.
func (s *Simulator) nextEventTime() (int64, int, bool) {
	var at int64
	pending := 0
	found := false
	for _, sh := range s.shards {
		n := sh.events.len()
		if n == 0 {
			continue
		}
		pending += n
		if h := sh.events.peek(); !found || h < at {
			at, found = h, true
		}
	}
	return at, pending, found
}

// phase selectors for the worker pool.
const (
	phaseRun = iota
	phaseMerge
)

// parallelPhase runs one epoch phase over all shards with the given
// worker count. Shards are claimed dynamically (execution is a pure
// function of shard state, so which worker runs a shard cannot affect
// results — only load balance).
func (s *Simulator) parallelPhase(workers, phase int, last int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(s.shards) {
					return
				}
				if phase == phaseRun {
					s.shards[k].runWindow(last)
				} else {
					s.shards[k].mergeIncoming()
				}
			}
		}()
	}
	wg.Wait()
}

// mergeIncoming drains every other shard's outbox slot addressed to this
// shard and inserts the events in deterministic (time, source shard,
// source sequence) order, re-homing in-flight packets to this shard's
// pool. Runs in the barrier's merge phase: sources are quiescent, and
// each (source, destination) slot has exactly one reader.
func (sh *shard) mergeIncoming() {
	buf := sh.mergeBuf[:0]
	for _, src := range sh.sim.shards {
		if src == sh {
			continue
		}
		// Reclaim buffers this shard allocated that died on src's shard,
		// so producer shards keep recycling instead of allocating anew.
		if hb := src.pool.homebound; len(hb) > sh.id && len(hb[sh.id]) > 0 {
			for _, p := range hb[sh.id] {
				p.pool = &sh.pool
				sh.pool.free = append(sh.pool.free, p)
			}
			for i := range hb[sh.id] {
				hb[sh.id][i] = nil
			}
			src.pool.homebound[sh.id] = hb[sh.id][:0]
		}
		if len(src.outbox) <= sh.id {
			continue
		}
		in := src.outbox[sh.id]
		if len(in) == 0 {
			continue
		}
		buf = append(buf, in...)
		for i := range in {
			in[i] = remoteEvent{} // drop packet references for the GC
		}
		src.outbox[sh.id] = in[:0]
	}
	if len(buf) == 0 {
		sh.mergeBuf = buf
		return
	}
	slices.SortFunc(buf, func(a, b remoteEvent) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.src != b.src:
			return int(a.src) - int(b.src)
		default:
			return cmp.Compare(a.seq, b.seq)
		}
	})
	for i := range buf {
		r := &buf[i]
		if r.ev.pkt != nil {
			r.ev.pkt.pool = &sh.pool // re-home: Release returns it here
		}
		sh.seq++
		sh.events.push(r.at, sh.seq, r.ev)
		*r = remoteEvent{}
	}
	sh.mergeBuf = buf[:0]
}

// flushTraces fires buffered trace events in globally merged (time,
// shard, seq) order — a total order independent of worker count — then
// resets the per-shard buffers. Runs single-threaded at the barrier.
func (s *Simulator) flushTraces() {
	if len(s.traces) == 0 {
		return
	}
	total := 0
	for _, sh := range s.shards {
		total += len(sh.traceBuf)
	}
	if total == 0 {
		return
	}
	type flushRec struct {
		rec   traceRec
		shard int
	}
	recs := make([]flushRec, 0, total)
	for _, sh := range s.shards {
		for _, r := range sh.traceBuf {
			recs = append(recs, flushRec{rec: r, shard: sh.id})
		}
	}
	slices.SortFunc(recs, func(a, b flushRec) int {
		switch {
		case a.rec.at != b.rec.at:
			return cmp.Compare(a.rec.at, b.rec.at)
		case a.shard != b.shard:
			return a.shard - b.shard
		default:
			return cmp.Compare(a.rec.seq, b.rec.seq)
		}
	})
	for _, fr := range recs {
		sh := s.shards[fr.shard]
		ev := TraceEvent{
			Kind:    fr.rec.kind,
			Time:    s.at(fr.rec.at),
			Node:    fr.rec.node,
			Pkt:     sh.traceBytes[fr.rec.off : fr.rec.off+fr.rec.n],
			Flow:    fr.rec.flow,
			Journey: fr.rec.journey,
			Attr:    fr.rec.attr,
		}
		for _, h := range s.traces {
			h(ev)
		}
	}
	for _, sh := range s.shards {
		sh.traceBuf = sh.traceBuf[:0]
		sh.traceBytes = sh.traceBytes[:0]
	}
}
