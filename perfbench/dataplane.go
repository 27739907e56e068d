package main

// dataplane: one caller drives core.Pool.ProcessBatch in a closed loop,
// with one pool worker per CPU. Batches of 256 packets mix data-path
// packets from thousands of (source, nonce) pairs, return-path packets
// and a small share of key-setup requests; payloads range from empty to
// a full 1500-byte packet. Each ProcessBatch call is one op. No netem or
// simnet code runs here, so this prices the neutralizer alone.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/obs"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

type dpSize struct {
	flows, returns, clients int // data (source, nonce) pairs, return flows, key-setup clients
	batches, batchLen       int // distinct batches cycled, packets per batch
	checkpoint              int // batches run before the fingerprint is taken
}

var (
	dpFull = dpSize{flows: 4096, returns: 1024, clients: 16, batches: 64, batchLen: 256, checkpoint: 400}
	dpTiny = dpSize{flows: 64, returns: 16, clients: 2, batches: 4, batchLen: 64, checkpoint: 8}
)

// Packet-type mix of a batch: shares of key-setup and return packets;
// the rest are data packets.
const (
	dpSetupShare  = 0.02
	dpReturnShare = 0.18
	dpMTU         = 1500
	// dpReplayEvery replays every n-th batch of the traced pass through
	// single ProcessScratch calls to price each shim type.
	dpReplayEvery = 8
	// dpAllocEvery samples MemStats around every n-th ProcessBatch call.
	dpAllocEvery = 16
)

var (
	dpAnycast   = netip.MustParseAddr("10.200.0.1")
	dpCustomers = netip.MustParsePrefix("10.64.0.0/10")
	dpOutside   = netip.MustParsePrefix("172.16.0.0/12")
	crcTable    = crc32.MakeTable(crc32.Castagnoli)
)

// flowID keys a (visible peer address, nonce) pair.
type flowID struct {
	addr  netip.Addr
	nonce keys.Nonce
}

type retFlow struct {
	customer netip.Addr
	ek       aesutil.ExpandedKey
}

type dpBatch struct {
	pkts                [][]byte
	nData, nRet, nSetup int
}

type dpWorld struct {
	sched   *keys.Schedule
	cfg     core.Config
	dataDst map[flowID]netip.Addr
	ret     map[flowID]*retFlow
	clients map[netip.Addr]*lightrsa.PrivateKey
	batches []dpBatch
}

func randAddr(rng *rand.Rand, p netip.Prefix) netip.Addr {
	base := binary.BigEndian.Uint32(p.Addr().AsSlice())
	span := uint32(1) << (32 - p.Bits())
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], base+1+uint32(rng.Int63n(int64(span-2))))
	return netip.AddrFrom4(b)
}

func payloadFor(rng *rand.Rand, sh *shim.Header) []byte {
	room := dpMTU - wire.IPv4HeaderLen - sh.EncodedLen()
	return randBytes(rng, rng.Intn(room+1))
}

func setupDataplane(cfg config, size dpSize) (*dpWorld, error) {
	rng := rngFor(cfg.seed, 2)
	var root aesutil.Key
	rng.Read(root[:])
	sched := keys.NewSchedule(root, simStart, time.Hour)
	now := simStart.Add(10 * time.Minute)
	epoch := sched.EpochAt(now)
	w := &dpWorld{
		sched: sched,
		cfg: core.Config{Schedule: sched, Anycast: dpAnycast, IsCustomer: dpCustomers.Contains,
			Clock: func() time.Time { return now }},
		dataDst: make(map[flowID]netip.Addr, size.flows),
		ret:     make(map[flowID]*retFlow, size.returns),
		clients: make(map[netip.Addr]*lightrsa.PrivateKey, size.clients),
	}

	type dataFlow struct {
		id  flowID
		dst netip.Addr
		ks  aesutil.Key
	}
	data := make([]dataFlow, size.flows)
	for i := range data {
		f := &data[i]
		f.id.addr = randAddr(rng, dpOutside)
		rng.Read(f.id.nonce[:])
		f.dst = randAddr(rng, dpCustomers)
		ks, err := sched.SessionKey(epoch, f.id.nonce, f.id.addr)
		if err != nil {
			return nil, err
		}
		f.ks = ks
		w.dataDst[f.id] = f.dst
	}
	rets := make([]flowID, size.returns)
	for i := range rets {
		id := flowID{addr: randAddr(rng, dpOutside)}
		rng.Read(id.nonce[:])
		ks, err := sched.SessionKey(epoch, id.nonce, id.addr)
		if err != nil {
			return nil, err
		}
		rf := &retFlow{customer: randAddr(rng, dpCustomers)}
		rf.ek.Expand(ks)
		w.ret[id] = rf
		rets[i] = id
	}
	// Key generation draws a varying number of bytes, so it gets a stream
	// of its own and the batches stay a pure function of the seed.
	keyRng := rngFor(cfg.seed, 4)
	clients := make([]netip.Addr, size.clients)
	for i := range clients {
		k, err := lightrsa.GenerateKey(keyRng, lightrsa.DefaultBits)
		if err != nil {
			return nil, err
		}
		clients[i] = randAddr(rng, dpOutside)
		w.clients[clients[i]] = k
	}

	for b := 0; b < size.batches; b++ {
		var batch dpBatch
		corrupt := cfg.faultCorrupt
		for j := 0; j < size.batchLen; j++ {
			var pkt []byte
			var err error
			switch u := rng.Float64(); {
			case u < dpSetupShare:
				src := clients[rng.Intn(len(clients))]
				sh := shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: w.clients[src].PublicKey.Marshal()}
				pkt, err = buildShim(src, dpAnycast, &sh, nil)
				batch.nSetup++
			case u < dpSetupShare+dpReturnShare:
				id := rets[rng.Intn(len(rets))]
				sh := shim.Header{Type: shim.TypeReturn, InnerProto: wire.ProtoUDP,
					Epoch: epoch, Nonce: id.nonce, ClearAddr: id.addr}
				pkt, err = buildShim(w.ret[id].customer, dpAnycast, &sh, payloadFor(rng, &sh))
				batch.nRet++
			default:
				f := &data[rng.Intn(len(data))]
				var tweak [8]byte
				rng.Read(tweak[:])
				blk, berr := aesutil.EncryptAddr(f.ks, f.dst, tweak)
				if berr != nil {
					return nil, berr
				}
				if corrupt {
					blk[3] ^= 0x5a
					corrupt = false
				}
				sh := shim.Header{Type: shim.TypeData, InnerProto: wire.ProtoUDP,
					Epoch: epoch, Nonce: f.id.nonce, HiddenAddr: blk}
				pkt, err = buildShim(f.id.addr, dpAnycast, &sh, payloadFor(rng, &sh))
				batch.nData++
			}
			if err != nil {
				return nil, err
			}
			batch.pkts = append(batch.pkts, pkt)
		}
		w.batches = append(w.batches, batch)
	}
	return w, nil
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// dpCheck verifies one batch's outputs and folds the data and return
// outputs into an order-independent hash (output order depends on the
// worker count). Return outputs carry a random salt inside the hidden
// address block, so they are hashed with the decrypted address instead.
type dpCheck struct {
	ip     wire.IPv4
	sh     shim.Header
	scrap  []byte
	hash   uint64
	hashed uint64
}

// verify returns how many of the batch's inputs lack a correct output.
func (c *dpCheck) verify(w *dpWorld, b *dpBatch, outs []core.Outgoing, fold bool, res *passResult) int {
	var nData, nRet, nSetup int
	for _, o := range outs {
		if c.ip.DecodeFromBytes(o.Pkt) != nil || c.sh.DecodeFromBytes(c.ip.Payload()) != nil {
			res.problem("undecodable output")
			continue
		}
		var h uint64
		switch c.sh.Type {
		case shim.TypeDelivered:
			if want, ok := w.dataDst[flowID{c.ip.Src, c.sh.Nonce}]; !ok || c.ip.Dst != want {
				res.problem("data output from %v addressed to %v, want %v", c.ip.Src, c.ip.Dst, want)
				continue
			}
			nData++
			h = uint64(crc32.Checksum(o.Pkt, crcTable)) | uint64(len(o.Pkt))<<32
		case shim.TypeReturnDelivered:
			rf, ok := w.ret[flowID{c.ip.Dst, c.sh.Nonce}]
			if !ok || c.ip.Src != dpAnycast {
				res.problem("return output %v→%v does not carry the anycast source", c.ip.Src, c.ip.Dst)
				continue
			}
			if a, _, ok := rf.ek.DecryptAddrX(c.sh.HiddenAddr); !ok || a != rf.customer {
				res.problem("return output hides %v, want %v", a, rf.customer)
				continue
			}
			nRet++
			c.scrap = append(c.scrap[:0], c.ip.Contents()[12:20]...)
			c.scrap = append(c.scrap, byte(c.sh.Type), byte(c.sh.InnerProto))
			c.scrap = binary.BigEndian.AppendUint32(c.scrap, uint32(c.sh.Epoch))
			c.scrap = append(c.scrap, c.sh.Nonce[:]...)
			c.scrap = append(c.scrap, rf.customer.AsSlice()...)
			c.scrap = append(c.scrap, c.sh.Payload()...)
			h = uint64(crc32.Checksum(c.scrap, crcTable)) | uint64(len(c.scrap))<<32 | 1<<63
		case shim.TypeKeySetupResponse:
			key, ok := w.clients[c.ip.Dst]
			if !ok || c.ip.Src != dpAnycast {
				res.problem("setup response %v→%v not for a client", c.ip.Src, c.ip.Dst)
				continue
			}
			pt, err := key.Decrypt(c.sh.Ciphertext)
			if err != nil {
				res.problem("setup response does not decrypt under the client key: %v", err)
				continue
			}
			nonce, ks, err := shim.DecodeSetupPlaintext(pt)
			if err != nil {
				res.problem("setup plaintext: %v", err)
				continue
			}
			want, err := w.sched.SessionKey(c.sh.Epoch, nonce, c.ip.Dst)
			if err != nil || !aesutil.Equal(ks, want) {
				res.problem("setup response grants the wrong session key")
				continue
			}
			nSetup++
			continue
		default:
			res.problem("unexpected output type %v", c.sh.Type)
			continue
		}
		if fold {
			c.hash += mix64(h)
			c.hashed++
		}
	}
	if nData > b.nData || nRet > b.nRet || nSetup > b.nSetup {
		res.problem("batch produced surplus outputs")
	}
	missing := max((b.nData-nData)+(b.nRet-nRet)+(b.nSetup-nSetup), 0)
	if missing > 0 {
		res.problem("batch of %d packets lacks %d correct outputs", len(b.pkts), missing)
	}
	return missing
}

func runDataplane(cfg config, tr *tracer) (*passResult, error) {
	size := dpFull
	if cfg.tiny {
		size = dpTiny
	}
	// Set-up is the inputs, their keys and the pool. setup_s is the
	// median of several set-ups; each earlier world is closed and
	// collected before the next is timed, and the last one is run.
	var (
		w    *dpWorld
		pool *core.Pool
	)
	setupTimes := make([]float64, 0, max(cfg.setups, 1))
	for i := 0; i < max(cfg.setups, 1); i++ {
		if pool != nil {
			pool.Close()
		}
		w, pool = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setupDataplane(cfg, size); err != nil {
			return nil, err
		}
		if pool, err = core.NewPool(core.PoolConfig{Workers: cfg.workers, Config: w.cfg}); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer pool.Close()
	runtime.GC()
	heap := memStats().HeapAlloc
	reg := obs.NewRegistry()
	pool.Instrument(reg)

	// The traced pass replays sampled batches through single
	// ProcessScratch calls on a replica of its own, one buffer per type.
	var opBuf, replay *spanBuf
	var typeBuf map[shim.Type]*spanBuf
	var replica *core.Neutralizer
	scr := core.NewScratch()
	if tr != nil {
		opBuf = tr.buf("op", "caller")
		replay = tr.buf("op", "replay")
		typeBuf = map[shim.Type]*spanBuf{
			shim.TypeData:            tr.buf("core", "ProcessScratch data"),
			shim.TypeReturn:          tr.buf("core", "ProcessScratch return"),
			shim.TypeKeySetupRequest: tr.buf("core", "ProcessScratch setup"),
		}
		var err error
		if replica, err = core.New(w.cfg); err != nil {
			return nil, err
		}
	}

	res := &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	var (
		check                       dpCheck
		ops                         opLog
		pkts, measured, sampledPkts int
		sampledAllocs               uint64
		ms0, ms1, m0                runtime.MemStats
		c0                          counters
	)
	start := time.Now()
	warm := warmup(cfg.seconds)
	for op := 0; op < size.checkpoint || time.Since(start) < warm+secondsDur(cfg.seconds); op++ {
		b := &w.batches[op%len(w.batches)]
		timed := time.Since(start) >= warm
		if timed && measured == 0 {
			c0, m0 = readCounters(reg), memStats()
		}
		sample := timed && op%dpAllocEvery == 0
		if sample {
			runtime.ReadMemStats(&ms0)
		}
		var t0 int64
		if opBuf != nil {
			t0 = tr.now()
		}
		w0 := time.Now()
		outs, _ := pool.ProcessBatch(b.pkts)
		d := time.Since(w0)
		if opBuf != nil {
			opBuf.record("core.ProcessBatch", t0, tr.now(), 0, int64(op))
		}
		if sample {
			runtime.ReadMemStats(&ms1)
			sampledAllocs += ms1.Mallocs - ms0.Mallocs
			sampledPkts += len(b.pkts)
		}
		if timed {
			ops.add(float64(len(b.pkts)), d)
			measured++
		}
		pkts += len(b.pkts)
		res.failed += int64(check.verify(w, b, outs, op < size.checkpoint, res))
		if op+1 == size.checkpoint {
			res.fingerprint = fmt.Sprintf("outputs=%d hash=%016x", check.hashed, check.hash)
		}
		if replica != nil && timed && op%dpReplayEvery == 0 {
			r0 := tr.now()
			ri, rid := replay.open("core.replay", r0, 0, int64(op))
			tr.enter(rid, int64(op))
			for _, pkt := range b.pkts {
				typ, _ := shim.PeekType(pkt[wire.IPv4HeaderLen:])
				scr.Reset()
				p0 := tr.now()
				_, _ = replica.ProcessScratch(scr, pkt)
				if tb := typeBuf[typ]; tb != nil {
					tb.call("core.ProcessScratch", p0, tr.now())
				}
			}
			replay.close(ri, tr.now())
		}
	}
	c1 := readCounters(reg)
	m1 := memStats()

	res.attempted = int64(pkts)
	res.opWall = secondsDur(ops.seconds())
	res.throughput = ops.rate()
	res.e2e["throughput_per_s"] = res.throughput
	res.e2e["op_p50_ms"] = ops.p50(time.Millisecond)
	res.e2e["op_p99_ms"] = ops.p99(time.Millisecond)
	res.e2e["setup_s"] = median(setupTimes)
	res.e2e["heap_mb"] = float64(heap) / (1 << 20)
	res.layer["core.allocs_per_pkt"] = ratio(float64(sampledAllocs), float64(sampledPkts))
	// The real-protocol phase runs without the pool's workers.
	pool.Close()
	if err := runRealprotoPhase(cfg, tr, res); err != nil {
		return nil, err
	}
	if tr == nil {
		return res, nil
	}
	l := res.layer
	perType := func(t shim.Type) float64 { return ratio(float64(typeBuf[t].ns), float64(typeBuf[t].calls)) }
	l["core.data_ns_per_pkt"] = perType(shim.TypeData)
	l["core.return_ns_per_pkt"] = perType(shim.TypeReturn)
	l["core.setup_ns_per_pkt"] = perType(shim.TypeKeySetupRequest)
	delta := func(prefix string) []float64 {
		before, after := c0.each(prefix), c1.each(prefix)
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	hits, misses := sum(delta("core_crypto_epoch_hits_total{")), sum(delta("core_crypto_epoch_misses_total{"))
	l["core.epoch_cache_hit_ratio"] = ratio(hits, hits+misses)
	perWorker := delta("core_worker_packets_total{")
	l["core.worker_imbalance"] = ratio(maxOf(perWorker), sum(perWorker)/float64(len(perWorker)))
	l["core.drop_ratio"] = ratio(sum(delta("core_worker_drops_total{")), sum(perWorker))
	runtimeLayer(l, &m0, &m1, measured)
	// The checker's RSA decryptions allocate between ops; count only the
	// allocations made inside the sampled ProcessBatch calls.
	l["runtime.allocs_per_op"] = ratio(float64(sampledAllocs), float64(sampledPkts)/float64(size.batchLen))
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
