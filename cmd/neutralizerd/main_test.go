package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"netneutral"
)

// TestLoopsReturnNilOnClose pins the shutdown contract: closing the
// socket (what the signal handler does) ends both transport loops with
// a nil error, not a read failure.
func TestLoopsReturnNilOnClose(t *testing.T) {
	custNet := netip.MustParsePrefix("10.10.0.0/16")
	cfg := netneutral.NeutralizerConfig{
		Schedule:   netneutral.NewKeySchedule(netneutral.MasterKey{7}, time.Now().Truncate(time.Hour), time.Hour),
		Anycast:    netip.MustParseAddr("10.200.0.1"),
		IsCustomer: custNet.Contains,
	}
	for _, tc := range []struct {
		name string
		run  func(d *daemon) error
	}{
		{"per-packet", func(d *daemon) error {
			neut, err := netneutral.NewNeutralizer(cfg)
			if err != nil {
				return err
			}
			return d.runPerPacket(neut)
		}},
		{"batched", func(d *daemon) error {
			pool, err := netneutral.NewNeutralizerPool(netneutral.NeutralizerPoolConfig{Workers: 2, Config: cfg})
			if err != nil {
				return err
			}
			defer pool.Close()
			return d.runBatched(pool)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			d := &daemon{conn: conn, reg: newRegistry(), opts: options{batch: 4, batchWait: time.Millisecond}}
			done := make(chan error, 1)
			go func() { done <- tc.run(d) }()

			// A registration frame proves the loop is reading before the
			// socket closes under it.
			peer, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			deadline := time.Now().Add(5 * time.Second)
			for d.reg.len() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("loop never registered the peer")
				}
				if _, err := peer.Write([]byte{0x00, 10, 10, 0, 5}); err != nil {
					t.Fatal(err)
				}
				time.Sleep(10 * time.Millisecond)
			}

			conn.Close()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("loop returned %v after close, want nil", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("loop did not return after close")
			}
		})
	}
}
