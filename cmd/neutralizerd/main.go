// Command neutralizerd runs a neutralizer over real UDP sockets: the
// deployable counterpart of the emulated experiments.
//
// Transport model: since the daemon cannot inject raw IP packets without
// privileges, serialized IPv4 shim packets ride inside UDP datagrams
// (IPv4-in-UDP tunneling). Peers register the inner IPv4 address they
// own, either implicitly (the daemon learns the mapping from the source
// address of inbound packets) or explicitly with a one-byte control
// frame: 0x00 ‖ IPv4(4).
//
// Data plane: because the neutralizer is stateless, the daemon scales by
// running replicas of the same core. -workers N spawns N goroutines that
// share the UDP socket, each processing packets through its own
// zero-allocation scratch. -batch M (M > 1) switches to a
// reader-plus-shard-pool pipeline: one goroutine drains up to M
// datagrams per wakeup and pushes them through an N-replica core.Pool.
//
// Usage:
//
//	neutralizerd -listen :7777 -anycast 10.200.0.1 -customers 10.10.0.0/16 -workers 4 -batch 64
//
// Flags configure the master-key root (hex; random if empty), the epoch
// length, and the optional dynamic-address pool.
//
// Observability: -metrics ADDR serves the live export surface —
// Prometheus text on /metrics, a JSON snapshot on /metrics.json, NDJSON
// frames (one per second, backpressured: slow consumers drop frames,
// the data plane never stalls) on /stream, and pprof under
// /debug/pprof/. The data-plane counters are atomic stripes: per-worker
// packet/drop/crypto-cache families from the shard pool, plus the
// neutralizer's own stats snapshot.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"netneutral"
	"netneutral/internal/core"
	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

func main() {
	listen := flag.String("listen", ":7777", "UDP listen address")
	anycastFlag := flag.String("anycast", "10.200.0.1", "anycast service address (inner IPv4)")
	customers := flag.String("customers", "10.10.0.0/16", "comma-separated customer prefixes")
	rootHex := flag.String("root", "", "32-hex-char master key root (random if empty)")
	epoch := flag.Duration("epoch", time.Hour, "master key epoch length")
	dynPool := flag.String("dynpool", "", "optional dynamic-address pool prefix (enables §3.4 QoS remedy)")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats logging interval (0 disables)")
	workers := flag.Int("workers", 1, "data-plane workers (socket readers, or pool shards with -batch)")
	batch := flag.Int("batch", 1, "datagrams per pool batch (>1 enables the sharded batch pipeline)")
	batchWait := flag.Duration("batchwait", 500*time.Microsecond, "max wait to fill a batch after the first datagram")
	metrics := flag.String("metrics", "", "serve /metrics, /metrics.json, /stream and /debug/pprof on this address (\":0\" picks a port)")
	flag.Parse()

	if err := run(options{
		listen: *listen, anycast: *anycastFlag, customers: *customers,
		rootHex: *rootHex, epoch: *epoch, dynPool: *dynPool,
		statsEvery: *statsEvery, workers: *workers, batch: *batch,
		batchWait: *batchWait, metrics: *metrics,
	}); err != nil {
		log.Fatalf("neutralizerd: %v", err)
	}
}

type options struct {
	listen, anycast, customers, rootHex, dynPool string
	epoch, statsEvery, batchWait                 time.Duration
	workers, batch                               int
	metrics                                      string
}

func run(o options) error {
	anycast, err := netip.ParseAddr(o.anycast)
	if err != nil {
		return fmt.Errorf("bad -anycast: %w", err)
	}
	var prefixes []netip.Prefix
	for _, p := range strings.Split(o.customers, ",") {
		pfx, err := netip.ParsePrefix(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("bad -customers entry %q: %w", p, err)
		}
		prefixes = append(prefixes, pfx)
	}
	if o.workers < 1 || o.workers > 1024 {
		return fmt.Errorf("bad -workers %d", o.workers)
	}
	// Each batch slot owns a full-datagram (64 KiB) read buffer, so the
	// cap keeps the upfront allocation to at most 64 MiB.
	if o.batch < 1 || o.batch > 1024 {
		return fmt.Errorf("bad -batch %d (1..1024)", o.batch)
	}
	var root netneutral.MasterKey
	if o.rootHex == "" {
		b := make([]byte, len(root))
		if _, err := randRead(b); err != nil {
			return err
		}
		copy(root[:], b)
		log.Printf("generated master key root %s (replicas must share it)", hex.EncodeToString(root[:]))
	} else {
		b, err := hex.DecodeString(o.rootHex)
		if err != nil || len(b) != len(root) {
			return fmt.Errorf("bad -root: want %d hex bytes", len(root))
		}
		copy(root[:], b)
	}

	cfg := netneutral.NeutralizerConfig{
		Schedule: netneutral.NewKeySchedule(root, time.Now().Truncate(o.epoch), o.epoch),
		Anycast:  anycast,
		IsCustomer: func(a netip.Addr) bool {
			for _, p := range prefixes {
				if p.Contains(a) {
					return true
				}
			}
			return false
		},
	}
	if o.dynPool != "" {
		pfx, err := netip.ParsePrefix(o.dynPool)
		if err != nil {
			return fmt.Errorf("bad -dynpool: %w", err)
		}
		cfg.DynAddrPool = pfx
	}

	pc, err := net.ListenPacket("udp", o.listen)
	if err != nil {
		return err
	}
	conn, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return fmt.Errorf("listener is %T, not *net.UDPConn", pc)
	}
	defer conn.Close()

	d := &daemon{conn: conn, reg: newRegistry(), opts: o}
	mode := fmt.Sprintf("%d worker(s), per-packet", o.workers)
	if o.batch > 1 {
		mode = fmt.Sprintf("%d shard(s), batch=%d", o.workers, o.batch)
	}
	log.Printf("neutralizer listening on %s, anycast %v, customers %v (%s)",
		conn.LocalAddr(), anycast, prefixes, mode)

	// The metrics registry is created before the data plane so the pool
	// can hand each worker its atomic counter stripes up front.
	var mreg *obs.Registry
	var mln net.Listener
	if o.metrics != "" {
		mln, err = net.Listen("tcp", o.metrics)
		if err != nil {
			return fmt.Errorf("bad -metrics: %w", err)
		}
		mreg = obs.NewRegistry()
		mreg.GaugeFunc("neutralizerd_peers",
			"Inner addresses with a registered tunnel endpoint.",
			func() float64 { return float64(d.reg.len()) }, obs.Volatile())
	}

	var statsFn func() netneutral.NeutralizerStats
	done := make(chan error, o.workers)
	if o.batch > 1 {
		pool, err := netneutral.NewNeutralizerPool(netneutral.NeutralizerPoolConfig{
			Workers: o.workers, Config: cfg,
		})
		if err != nil {
			return err
		}
		defer pool.Close()
		statsFn = pool.Stats
		if mreg != nil {
			pool.Instrument(mreg)
		}
		go func() { done <- d.runBatched(pool) }()
	} else {
		neut, err := netneutral.NewNeutralizer(cfg)
		if err != nil {
			return err
		}
		statsFn = func() netneutral.NeutralizerStats { return neut.Stats().Snapshot() }
		if mreg != nil {
			core.RegisterStats(mreg, statsFn)
		}
		for i := 0; i < o.workers; i++ {
			go func() { done <- d.runPerPacket(neut) }()
		}
	}

	if mreg != nil {
		stream := obs.NewStreamer()
		stream.Register(mreg)
		go func() {
			// Wall-clock frame ticker: the daemon has no epoch barriers,
			// so /stream gets one merged snapshot per second. Publish
			// never blocks; slow subscribers lose frames, counted in
			// obs_stream_dropped_frames_total.
			for range time.Tick(time.Second) {
				if stream.Active() {
					stream.Publish(obs.MarshalFrame(mreg.Snapshot()))
				}
			}
		}()
		log.Printf("metrics listening on http://%s/metrics", mln.Addr())
		go func() {
			_ = http.Serve(mln, obs.NewHandler(obs.HandlerConfig{Source: mreg, Streamer: stream}))
		}()
	}

	if o.statsEvery > 0 {
		go func() {
			for range time.Tick(o.statsEvery) {
				s := statsFn()
				log.Printf("stats: setups=%d data=%d return=%d grants=%d drops(epoch=%d,block=%d,cust=%d,malformed=%d) peers=%d",
					s.KeySetups, s.DataForwarded, s.ReturnForwarded,
					s.GrantsStamped, s.DropStaleEpoch, s.DropBadAddrBlock,
					s.DropNotCustomer, s.DropMalformed, d.reg.len())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("shutting down")
		conn.Close()
	}()
	return <-done
}

// daemon bundles the socket and the inner-address registry shared by all
// transport loops.
type daemon struct {
	conn *net.UDPConn
	reg  *registry
	opts options
}

// ingest handles registration for one inbound datagram and reports
// whether it was a control frame (fully consumed).
func (d *daemon) ingest(pkt []byte, from netip.AddrPort) bool {
	if len(pkt) >= 5 && pkt[0] == 0x00 {
		d.reg.set(netip.AddrFrom4([4]byte(pkt[1:5])), from)
		return true
	}
	if src, _, err := wire.IPv4Addrs(pkt); err == nil {
		d.reg.set(src, from)
	}
	return false
}

// deliver tunnels one output packet to the peer registered for its inner
// destination. Unknown destinations are dropped, as a border router
// would drop a packet with no route.
func (d *daemon) deliver(pkt []byte) {
	_, dst, err := wire.IPv4Addrs(pkt)
	if err != nil {
		return
	}
	if peer, ok := d.reg.get(dst); ok {
		if _, err := d.conn.WriteToUDPAddrPort(pkt, peer); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("write to %v: %v", peer, err)
		}
	}
}

// runPerPacket is the -batch=1 loop: read, process through this worker's
// scratch, transmit. Several of these run concurrently against the one
// shared stateless Neutralizer; the scratch (and read buffer) are the
// only per-worker state.
func (d *daemon) runPerPacket(neut *netneutral.Neutralizer) error {
	buf := make([]byte, 64<<10)
	scratch := netneutral.NewScratch()
	for {
		n, from, err := d.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		pkt := buf[:n]
		if d.ingest(pkt, from) {
			continue
		}
		scratch.Reset()
		outs, err := neut.ProcessScratch(scratch, pkt)
		if err != nil {
			continue // counted in stats
		}
		for _, o := range outs {
			d.deliver(o.Pkt)
		}
	}
}

// runBatched is the -batch>1 pipeline: one reader drains up to batch
// datagrams per wakeup (waiting at most -batchwait after the first) and
// pushes them through the shard pool in a single ProcessBatch call.
func (d *daemon) runBatched(pool *netneutral.NeutralizerPool) error {
	batch := d.opts.batch
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, 64<<10)
	}
	pkts := make([][]byte, 0, batch)
	for {
		pkts = pkts[:0]
		// Block for the first datagram of the batch.
		if err := d.conn.SetReadDeadline(time.Time{}); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		n, from, err := d.conn.ReadFromUDPAddrPort(bufs[0])
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !d.ingest(bufs[0][:n], from) {
			pkts = append(pkts, bufs[0][:n])
		}
		// Opportunistically drain more, bounded by -batchwait.
		if err := d.conn.SetReadDeadline(time.Now().Add(d.opts.batchWait)); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		for len(pkts) < batch {
			b := bufs[len(pkts)]
			n, from, err := d.conn.ReadFromUDPAddrPort(b)
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return nil
				}
				break // deadline: ship what we have
			}
			if !d.ingest(b[:n], from) {
				pkts = append(pkts, b[:n])
			}
		}
		if len(pkts) == 0 {
			continue
		}
		outs, _ := pool.ProcessBatch(pkts)
		for _, o := range outs {
			d.deliver(o.Pkt)
		}
	}
}

// registry maps inner IPv4 addresses to tunnel endpoints. AddrPort
// values are comparable, so the hot path can check for a no-op update
// under the read lock and skip the write lock entirely.
type registry struct {
	mu sync.RWMutex
	m  map[netip.Addr]netip.AddrPort
}

func newRegistry() *registry { return &registry{m: make(map[netip.Addr]netip.AddrPort)} }

func (r *registry) set(a netip.Addr, peer netip.AddrPort) {
	r.mu.RLock()
	cur, ok := r.m[a]
	r.mu.RUnlock()
	if ok && cur == peer {
		return
	}
	r.mu.Lock()
	r.m[a] = peer
	r.mu.Unlock()
}

func (r *registry) get(a netip.Addr) (netip.AddrPort, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.m[a]
	return p, ok
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

func randRead(b []byte) (int, error) { return rand.Read(b) }
