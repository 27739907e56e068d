package netem

import "time"

// External-waiter support: simnet (the net.Conn/net.PacketConn bridge)
// drives the simulator one event at a time so it can hand control to
// ordinary goroutines blocked on sim-backed sockets between events and
// inject their sends at a deterministic virtual time. Single-stepping is
// only meaningful on the serial engine — one shard, one event order —
// so both entry points reject genuinely sharded simulators: an external
// driver interleaving with the epoch loop would have no defined "current
// event" to pause at.

// NextEventAt reports the timestamp of the earliest pending event, and
// whether one exists. Serial (unsharded) engine only.
func (s *Simulator) NextEventAt() (time.Time, bool) {
	s.guardSerial("NextEventAt")
	sh := s.shards[0]
	if sh.events.len() == 0 {
		return time.Time{}, false
	}
	return s.at(sh.events.peek()), true
}

// Step pops and dispatches the single earliest pending event, advancing
// the clock to its timestamp. It reports whether an event ran. Serial
// (unsharded) engine only: external drivers (simnet) interleave Step
// with their own injections, which requires the classic one-queue event
// order.
func (s *Simulator) Step() bool {
	s.guardSerial("Step")
	sh := s.shards[0]
	if sh.events.len() == 0 {
		return false
	}
	sh.step()
	s.committed = max(s.committed, sh.now)
	return true
}

// guardSerial rejects single-step APIs on sharded simulators.
func (s *Simulator) guardSerial(api string) {
	s.refreshPlan()
	if s.multi {
		panic("netem: Simulator." + api + " requires the serial engine; external waiters (simnet) cannot drive a sharded simulator")
	}
}
