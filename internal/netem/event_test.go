package netem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// queueTimes are the push timestamps the differential check draws from:
// few distinct values, so most pops break a tie on seq, plus the
// saturated end of virtual time.
var queueTimes = [...]int64{0, 1, 1, 2, 3, 3, 1 << 40, math.MaxInt64}

// checkEventQueue replays ops against an eventQueue and a reference
// that sorts by (at, seq): a byte below 160 pushes an event at
// queueTimes[b%8], any other byte pops. Every pop must return the
// reference's earliest (at, seq) with its own payload, and a drained
// queue must hold no payload references.
func checkEventQueue(t *testing.T, ops []byte) {
	t.Helper()
	type ref struct {
		at  int64
		seq uint64
	}
	var (
		q       eventQueue
		pending []ref
		seq     uint64
	)
	payload := make(map[uint64]*Node)
	pop := func() {
		i := 0
		for j, r := range pending {
			if r.at < pending[i].at || (r.at == pending[i].at && r.seq < pending[i].seq) {
				i = j
			}
		}
		want := pending[i]
		pending = slices.Delete(pending, i, i+1)
		at, ev := q.pop()
		if at != want.at || ev.node != payload[want.seq] {
			t.Fatalf("pop = (at %d, node %d), want (at %d, seq %d)", at, ev.node.id, want.at, want.seq)
		}
	}
	for _, b := range ops {
		if b < 160 {
			seq++
			at := queueTimes[b%8]
			payload[seq] = &Node{id: int(seq)}
			q.push(at, seq, event{kind: evArrive, node: payload[seq]})
			pending = append(pending, ref{at, seq})
		} else if len(pending) > 0 {
			pop()
		}
		if q.len() != len(pending) {
			t.Fatalf("len = %d, want %d", q.len(), len(pending))
		}
	}
	for len(pending) > 0 {
		pop()
	}
	if len(q.free) != len(q.slab) {
		t.Fatalf("drained queue: %d free slots of %d", len(q.free), len(q.slab))
	}
	for i, ev := range q.slab {
		if ev.kind != 0 || ev.node != nil || ev.pkt != nil || ev.dir != nil || ev.fn != nil {
			t.Fatalf("drained queue: slab slot %d still holds %+v", i, ev)
		}
	}
}

func TestEventQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 1+rng.Intn(3000))
		rng.Read(ops)
		checkEventQueue(t, ops)
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 200, 3, 3, 3, 255, 7, 7, 0, 240})
	f.Add([]byte("push push push pop pop"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096] // the reference is quadratic
		}
		checkEventQueue(t, ops)
	})
}

// holdQueue fills a queue with n events spread over 10ms of virtual
// time and returns it with the next sequence number; holdStep then runs
// the classic hold model — pop the earliest, push it again a drawn
// delay later — the shape of a shard's steady state.
func holdQueue(n int) (*eventQueue, uint64, []int64) {
	rng := rand.New(rand.NewSource(1))
	q := &eventQueue{}
	seq := uint64(0)
	for i := 0; i < n; i++ {
		seq++
		q.push(rng.Int63n(10_000_000), seq, event{kind: evArrive})
	}
	delays := make([]int64, 1024)
	for i := range delays {
		delays[i] = rng.Int63n(10_000_000) / 1000 * 1000 // µs grid: ties
	}
	return q, seq, delays
}

func TestEventQueueZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	q, seq, delays := holdQueue(1024)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		at, ev := q.pop()
		seq++
		q.push(at+delays[i%len(delays)], seq, ev)
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state push/pop allocated %.1f times per op", allocs)
	}
}

func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			q, seq, delays := holdQueue(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, ev := q.pop()
				seq++
				q.push(at+delays[i%len(delays)], seq, ev)
			}
		})
	}
}
