package main

// The real-protocol phase: neutralized HTTP. An outside client holds one
// keep-alive net/http connection to a customer http.Server. The
// connection runs over endhost shim conduits, through the neutralizer at
// the border, over simnet's virtual-time sockets on a single-shard
// fan-out, with a dpi flow-table tap at transit. The client runs a
// closed loop: the next request goes out when the previous response has
// been read, for a fixed number of requests. The phase ends every
// dataplane pass, outside the timed loop: only the per-layer simnet,
// hooks and core.busy_share figures read it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/dpi"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/netem"
	"netneutral/internal/simnet"
)

type rpSize struct {
	requests         int // requests per client
	checkpoint       int // requests per client before the fingerprint is taken
	minBody, maxBody int // response filler bytes
}

var (
	rpFull = rpSize{requests: 3000, checkpoint: 100, minBody: 200, maxBody: 4000}
	rpTiny = rpSize{requests: 10, checkpoint: 5, minBody: 200, maxBody: 4000}
)

// rpClients is the number of clients. simnet runs one goroutine at a
// time, so a second client adds no concurrency: it only interleaves with
// the first.
const rpClients = 1

var quietLog = log.New(io.Discard, "", 0)

// rpClient is one client's tally. Each client goroutine owns its entry.
type rpClient struct {
	attempted, failed int
	ckRTT             time.Duration // virtual RTTs of the first checkpoint requests
	err               error
}

// runRealprotoPhase runs the real-protocol phase, adding its requests,
// failures and fingerprint to res and, when traced, the simnet.*,
// hooks.*, core.busy_share and core.pkts figures.
func runRealprotoPhase(cfg config, tr *tracer, res *passResult) error {
	size := rpFull
	if cfg.tiny {
		size = rpTiny
	}
	// simnet runs one workload goroutine at a time and probes for
	// quiescence with a stop-the-world stack dump; a single P keeps that
	// probe from waiting on a second CPU the host may have descheduled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clients := rpClients
	sim := netem.NewSimulator(simStart, cfg.seed)
	// Finite-rate links make each virtual RTT depend on the seeded
	// response size, so the RTT sum fingerprints the exchange.
	link := netem.LinkConfig{Delay: time.Millisecond, RateBps: 100e6, QueueLen: 4096}
	f, err := netem.BuildFanout(sim, netem.FanoutSpec{
		Hosts: clients, Outside: clients,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
	})
	if err != nil {
		return err
	}
	rng := rngFor(cfg.seed, 3)
	var root aesutil.Key
	rng.Read(root[:])
	neut, err := core.New(core.Config{
		Schedule:   keys.NewSchedule(root, simStart, time.Hour),
		Anycast:    f.Spec.Anycast,
		IsCustomer: f.CustomerNet.Contains,
		Clock:      f.Border.Now,
	})
	if err != nil {
		return err
	}
	h := neutralizerHandler(f.Border, neut)
	tab := dpi.NewFlowTable(dpi.Config{})
	var hook netem.TransitHook = func(now time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		if key, fwd, ok := netem.FlowKeyOf(pkt); ok {
			tab.Observe(key, fwd, len(pkt), now.UnixNano())
		}
		return netem.Deliver
	}
	if tr != nil {
		h = tr.buf("core", f.Border.Name).wrapHandler("core.border", h)
		hook = tr.buf("hooks", f.Transit.Name).wrapHook("hooks.transit", hook)
	}
	f.Border.SetHandler(h)
	f.Transit.AddTransitHook(hook)

	n := simnet.New(sim)
	reg := sim.Metrics()
	n.Instrument(reg)

	filler := bytes.Repeat([]byte("neutral "), size.maxBody/8+1)
	var servers []*http.Server
	var serving sync.WaitGroup
	pubs := make([]e2e.PublicKey, clients)
	for i := 0; i < clients; i++ {
		host, err := newEndhost(f.Hosts[i], f.HostAddr(i), cfg.seed, 100+int64(i))
		if err != nil {
			return err
		}
		pubs[i] = host.Identity()
		ln, err := n.AttachHost(f.Hosts[i], host, nil).Listen()
		if err != nil {
			return err
		}
		srv := &http.Server{ErrorLog: quietLog, Handler: http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) {
				var body int
				if _, err := fmt.Sscanf(r.URL.Query().Get("n"), "%d", &body); err != nil || body > len(filler) {
					http.Error(w, "bad size", http.StatusBadRequest)
					return
				}
				fmt.Fprintf(w, "served %s\n", r.URL.Path)
				w.Write(filler[:body])
			})}
		servers = append(servers, srv)
		serving.Add(1)
		go func() {
			defer serving.Done()
			_ = srv.Serve(ln) // returns once the closer below shuts it down
		}()
	}

	var (
		tally              = make([]rpClient, clients)
		started, finished  atomic.Int64
		done               int // clients finished; guarded by simnet's lock
		ckWakes0, ckSteps0 uint64
		ckWakes, ckSteps   uint64
		ckT                layerTallies
		tal0               layerTallies // tracer tallies when Run starts
	)
	ckTotal := int64(clients * size.checkpoint)
	for i := 0; i < clients; i++ {
		i := i
		chost, err := newEndhost(f.Outside[i], f.OutsideAddr(i), cfg.seed, 200+int64(i))
		if err != nil {
			return err
		}
		cmux := n.AttachHost(f.Outside[i], chost, nil)
		var ob *spanBuf
		if tr != nil {
			ob = tr.buf("op", fmt.Sprintf("http client %d", i))
		}
		paths := rngFor(cfg.seed, 300+int64(i))
		n.Go(func() {
			c := &tally[i]
			defer n.Locked(func() { done++ })
			peer, neutAddr := f.HostAddr(i), f.Spec.Anycast
			n.Sleep(time.Duration(i) * 5 * time.Millisecond)
			var herr error
			if n.Locked(func() { herr = chost.Setup(neutAddr) }); herr != nil {
				c.err = fmt.Errorf("setup: %w", herr)
				return
			}
			if err := cmux.WaitConduit(neutAddr, n.Now().Add(5*time.Second)); err != nil {
				c.err = err
				return
			}
			if n.Locked(func() { herr = chost.Connect(neutAddr, peer, pubs[i]) }); herr != nil {
				c.err = fmt.Errorf("connect: %w", herr)
				return
			}
			conn, err := cmux.Dial(peer)
			if err != nil {
				c.err = err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for r := 0; r < size.requests; r++ {
				path := fmt.Sprintf("/obj/%d/%08x", i, paths.Uint32())
				url := fmt.Sprintf("http://%s%s?n=%d", peer, path, size.minBody+paths.Intn(size.maxBody-size.minBody+1))
				req, err := http.NewRequest("GET", url, nil)
				if err != nil {
					c.err = err
					return
				}
				if started.Add(1) == 1 {
					ckWakes0, ckSteps0, _ = n.Stats()
				}
				c.attempted++
				v0 := n.Now()
				var t0 int64
				if ob != nil {
					t0 = tr.now()
				}
				body, status, err := roundTrip(conn, br, req)
				if ob != nil {
					ob.record("realproto.request", t0, tr.now(), 0, int64(r))
				}
				if err != nil {
					c.failed++
					c.err = fmt.Errorf("request %d: %w", r, err)
					return
				}
				if status != http.StatusOK || !bytes.HasPrefix(body, []byte("served "+path+"\n")) {
					c.failed++
					c.err = fmt.Errorf("request %d: status %d, body %.40q", r, status, body)
					continue
				}
				if r < size.checkpoint {
					c.ckRTT += n.Now().Sub(v0)
				}
				if r < size.checkpoint && finished.Add(1) == ckTotal {
					ckWakes, ckSteps, _ = n.Stats()
					ckT = tr.tallies().since(tal0)
				}
			}
		})
	}
	// Once every client is done, shut the servers down inside the run so
	// their goroutines are woken and exit inside simnet's run loop.
	n.Go(func() {
		n.Wait(func() bool { return done == clients })
		for _, srv := range servers {
			srv.Close()
		}
	})
	c0 := readCounters(reg)
	tal0 = tr.tallies()
	runStart := time.Now()
	runErr := n.Run()
	runWall := time.Since(runStart)
	c1 := readCounters(reg)
	during := tr.tallies().since(tal0)
	stopped := make(chan struct{})
	go func() { serving.Wait(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		return errors.New("realproto: http servers did not stop")
	}
	if runErr != nil {
		return fmt.Errorf("realproto: %w", runErr)
	}

	var rtt time.Duration
	for i := range tally {
		c := &tally[i]
		res.attempted += int64(c.attempted)
		res.failed += int64(c.failed)
		if c.err != nil {
			res.problem("realproto client %d: %v", i, c.err)
		}
		rtt += c.ckRTT
	}
	res.fingerprint += fmt.Sprintf(" requests=%d virtual_rtt_sum=%dns", ckTotal, rtt.Nanoseconds())
	if tr == nil {
		return nil
	}

	// Run-level reads cover the whole Run (bootstrap included); the
	// request loop dominates it.
	l := res.layer
	wakes := c1.get("simnet_wakes_total") - c0.get("simnet_wakes_total")
	core, hooks := during["core"], during["hooks"]
	l["simnet.wakes_per_req"] = float64(ckWakes-ckWakes0) / float64(ckTotal)
	l["simnet.steps_per_req"] = float64(ckSteps-ckSteps0) / float64(ckTotal)
	l["simnet.spin_share"] = ratio(c1.get("simnet_spin_seconds_total")-c0.get("simnet_spin_seconds_total"), runWall.Seconds())
	l["simnet.self_ns_per_wake"] = ratio(float64(int64(runWall)-core.ns-hooks.ns), wakes)
	l["core.busy_share"] = ratio(float64(core.ns), float64(runWall))
	l["core.pkts"] = float64(ckT["core"].calls)
	l["hooks.calls"] = float64(ckT["hooks"].calls)
	l["hooks.ns_per_call"] = ratio(float64(hooks.ns), float64(hooks.calls))
	l["hooks.busy_share"] = ratio(float64(hooks.ns), float64(runWall))
	return nil
}

// newEndhost builds a shim end host on node with seeded identity and
// entropy streams.
func newEndhost(node *netem.Node, addr netip.Addr, seed, stream int64) (*endhost.Host, error) {
	id, err := e2e.NewIdentity(rngFor(seed, stream), 0)
	if err != nil {
		return nil, err
	}
	return endhost.NewHost(endhost.Config{
		Addr:      addr,
		Transport: func(pkt []byte) error { return node.Send(pkt) },
		Identity:  id,
		Clock:     node.Sim().Now,
		Rand:      rngFor(seed, stream+1000),
	})
}

// roundTrip writes req on conn and reads the whole response.
func roundTrip(conn io.Writer, br *bufio.Reader, req *http.Request) ([]byte, int, error) {
	if err := req.Write(conn); err != nil {
		return nil, 0, err
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, err
}
