package netem

import (
	"math"
	"testing"
	"time"
)

// Virtual time is int64 nanoseconds since the simulator's start; these
// tests pin the conversions at the time.Time API edges.

func TestScheduleAtBeforeStartClampsToNow(t *testing.T) {
	s := NewSimulator(simStart, 1)
	var order []string
	var at time.Time
	s.ScheduleAt(simStart.Add(time.Millisecond), func() { order = append(order, "later") })
	s.ScheduleAt(simStart.Add(-time.Hour), func() { order = append(order, "early"); at = s.Now() })
	s.Run()
	if len(order) != 2 || order[0] != "early" {
		t.Fatalf("order = %v, want the pre-start event first", order)
	}
	if at != simStart {
		t.Errorf("pre-start event ran at %v, want the start %v", at, simStart)
	}
}

func TestScheduleBeyondInt64RangeSaturates(t *testing.T) {
	s := NewSimulator(simStart, 1)
	s.RunFor(time.Second)
	end := simStart.Add(math.MaxInt64)
	var order []string
	var farAt time.Time
	// Both would wrap negative without saturation and so run first,
	// clamped to now.
	s.ScheduleAt(simStart.AddDate(500, 0, 0), func() { order = append(order, "at"); farAt = s.Now() })
	s.Schedule(math.MaxInt64, func() { order = append(order, "after") })
	s.Schedule(time.Millisecond, func() { order = append(order, "near") })
	s.Run()
	want := []string{"near", "at", "after"}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if farAt != end || s.Now() != end {
		t.Errorf("far events ran at %v (clock %v), want the saturated end %v", farAt, s.Now(), end)
	}
}

func TestRunUntilInclusive(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := NewSimulator(simStart, 1)
		a := s.MustAddNode("a", "")
		if shards > 1 {
			s.SetShardCount(shards)
			s.MustAddNode("b", "").SetShard(1)
		}
		limit := simStart.Add(5 * time.Millisecond)
		var at, past bool
		a.Schedule(5*time.Millisecond, func() { at = true })
		a.Schedule(5*time.Millisecond+time.Nanosecond, func() { past = true })
		s.RunUntil(limit)
		if !at || past {
			t.Errorf("shards=%d: ran at-limit=%v past-limit=%v, want true false", shards, at, past)
		}
		if s.Now() != limit {
			t.Errorf("shards=%d: clock = %v, want %v", shards, s.Now(), limit)
		}
	}
}

// The returned times must equal, under ==, the start advanced by the
// same durations — location and monotonic reading included — as they
// did when the engine kept time.Time internally.
func TestNowKeepsStartLocationAndMonotonic(t *testing.T) {
	starts := map[string]time.Time{
		"fixed-zone": time.Date(2006, 11, 1, 12, 0, 0, 0, time.FixedZone("UTC+5:30", 5*3600+1800)),
		"monotonic":  time.Now(),
	}
	for name, start := range starts {
		s := NewSimulator(start, 1)
		a := s.MustAddNode("a", "")
		var inner, handler time.Time
		s.Schedule(1500*time.Microsecond, func() {
			a.Schedule(250*time.Microsecond, func() { inner = a.Now() })
		})
		s.RunFor(time.Millisecond)
		if got, want := s.Now(), start.Add(time.Millisecond); got != want {
			t.Errorf("%s: Now after RunFor = %v, want %v", name, got, want)
		}
		limit := start.Add(3 * time.Millisecond)
		s.OnBarrier(func(now time.Time) { handler = now })
		s.RunUntil(limit)
		if want := start.Add(1500 * time.Microsecond).Add(250 * time.Microsecond); inner != want {
			t.Errorf("%s: Node.Now in callback = %v, want %v", name, inner, want)
		}
		if s.Now() != limit || handler != limit {
			t.Errorf("%s: Now after RunUntil = %v, barrier saw %v, want %v", name, s.Now(), handler, limit)
		}
		if s.Now().Location() != start.Location() {
			t.Errorf("%s: location = %v, want %v", name, s.Now().Location(), start.Location())
		}
		if s.NowNanos() != limit.UnixNano() || a.NowNanos() != limit.UnixNano() {
			t.Errorf("%s: NowNanos = %d/%d, want %d", name, s.NowNanos(), a.NowNanos(), limit.UnixNano())
		}
	}
}

// A sharded simulator whose links all stay inside a shard has no
// lookahead bound: every window is unbounded, up to the last
// representable instant.
func TestShardedWithoutCrossLinksDrains(t *testing.T) {
	s := NewSimulator(simStart, 1)
	s.SetShardCount(2)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	c := s.MustAddNode("c", "", addr("10.0.1.1"))
	d := s.MustAddNode("d", "", addr("10.0.1.2"))
	c.SetShard(1)
	d.SetShard(1)
	s.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	s.Connect(c, d, LinkConfig{Delay: 2 * time.Millisecond})
	s.BuildRoutes()
	_ = a.Send(mkUDP(t, addr("10.0.0.1"), addr("10.0.0.2"), nil))
	_ = c.Send(mkUDP(t, addr("10.0.1.1"), addr("10.0.1.2"), nil))
	far := false
	d.Schedule(math.MaxInt64, func() { far = true })
	s.Run()
	if s.lookahead != noLookahead || !s.multi {
		t.Fatalf("plan: multi=%v lookahead=%v, want a sharded plan without lookahead", s.multi, s.lookahead)
	}
	if s.Delivered() != 2 || !far || s.PendingEvents() != 0 {
		t.Errorf("delivered %d, far event ran %v, %d pending; want 2, true, 0", s.Delivered(), far, s.PendingEvents())
	}
	if want := simStart.Add(math.MaxInt64); s.Now() != want {
		t.Errorf("clock = %v, want %v", s.Now(), want)
	}
}
