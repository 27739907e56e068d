package netem

import (
	"math"
	"time"
)

// Virtual time inside the engine is an int64: nanoseconds since the
// simulator's start. time.Time appears only at the API edges (Now,
// ScheduleAt, RunUntil, handler/hook/trace/barrier arguments), converted
// with start.Add: callers see the start time advanced by the elapsed
// duration, in the start's location and with its monotonic reading.
//
// The event queue is split in two. A 4-ary min-heap orders small
// eventKeys — (at, seq, slot), no pointers, so the GC never scans it and
// a sift moves 24 bytes — while the typed event payloads sit still in a
// per-shard slab indexed by slot, recycled through a free list. The
// hot-path events (link departure, link arrival, policy-delayed
// redispatch) carry their operands in payload fields, so a forwarded
// packet costs no closure or heap allocation per hop; only the public
// Schedule/ScheduleAt API still wraps arbitrary callbacks.

type eventKind uint8

const (
	evFunc    eventKind = iota // run fn()
	evArrive                   // pkt arrives at node (link propagation done)
	evDepart                   // dir finished serializing its current packet
	evDelayed                  // policy-delayed pkt resumes dispatch at node
	evProc                     // processing-delayed pkt originates at node
)

// event is a queued event's payload; its time and sequence live in the
// heap key.
type event struct {
	kind eventKind
	node *Node
	pkt  *Packet
	dir  *linkDir
	fn   func()
}

// eventKey orders one queued event: earliest at first, FIFO (seq) among
// simultaneous events. slot locates the payload in the slab.
type eventKey struct {
	at   int64
	seq  uint64
	slot uint32
}

func (k eventKey) less(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventQueue is a 4-ary min-heap of eventKeys over a payload slab.
// (at, seq) is unique within a shard, so the pop order is a pure
// function of the pushed keys — independent of heap arity and slot
// assignment.
type eventQueue struct {
	keys []eventKey
	slab []event
	free []uint32 // slab slots not holding a queued payload
}

func (q *eventQueue) len() int { return len(q.keys) }

// peek reports the earliest queued time; the queue must be non-empty.
func (q *eventQueue) peek() int64 { return q.keys[0].at }

func (q *eventQueue) push(at int64, seq uint64, ev event) {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	k := eventKey{at: at, seq: seq, slot: slot}
	q.keys = append(q.keys, k)
	h := q.keys
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// pop removes the earliest event, returning its time and payload. The
// payload's slab slot is cleared (dropping pkt/fn references for the
// GC) and recycled.
func (q *eventQueue) pop() (int64, event) {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.keys = h
	if n > 0 {
		// Sift the hole at the root down, then drop the last key in.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+4, n); j < end; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	ev := q.slab[top.slot]
	q.slab[top.slot] = event{}
	q.free = append(q.free, top.slot)
	return top.at, ev
}

// addSat returns t+d, saturating at the end of representable virtual
// time instead of wrapping.
func addSat(t int64, d time.Duration) int64 {
	if s := t + int64(d); d <= 0 || s >= t {
		return s
	}
	return math.MaxInt64
}

// step pops the shard's earliest event, advances the clock to it, and
// runs it; the queue must be non-empty.
func (sh *shard) step() {
	at, ev := sh.events.pop()
	sh.now = at
	sh.mEvents.Inc()
	sh.dispatchEvent(&ev)
}

// runWindow executes the shard's events with timestamps <= last, in
// (at, seq) order. Events it generates for its own shard join the queue
// immediately; events for other shards are staged in the outbox.
func (sh *shard) runWindow(last int64) {
	for sh.events.len() > 0 && sh.events.peek() <= last {
		sh.step()
	}
}

// dispatchEvent runs one popped event. Shard-local: every operand (node,
// link direction) belongs to the shard that queued the event.
func (sh *shard) dispatchEvent(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evArrive:
		_ = ev.node.dispatch(ev.pkt, false)
	case evDepart:
		ev.dir.depart(ev.pkt)
	case evDelayed:
		_ = ev.node.dispatchAfterPolicy(ev.pkt, false)
	case evProc:
		_ = ev.node.dispatch(ev.pkt, true)
	}
}
