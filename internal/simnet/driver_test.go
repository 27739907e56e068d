package simnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// The quiescence detector (othersIdle) parses runtime.Stack text, so a
// change in the toolchain's dump format would silently break simnet's
// determinism. These tests pin the format countBusy relies on and fail
// loudly when it changes.

func TestCountBusyStates(t *testing.T) {
	for _, tc := range []struct {
		header string
		busy   bool
	}{
		{"goroutine 1 [running]:", true},
		{"goroutine 1 [running, locked to thread]:", true},
		{"goroutine 7 [runnable]:", true},
		{"goroutine 9 [syscall]:", true},
		{"goroutine 9 [syscall, 2 minutes]:", true},
		{"goroutine 3 [chan receive, 3 minutes]:", false},
		{"goroutine 3 [chan receive]:", false},
		{"goroutine 4 [chan send]:", false},
		{"goroutine 5 [select]:", false},
		{"goroutine 5 [select (no cases)]:", false},
		{"goroutine 6 [IO wait]:", false},
		{"goroutine 6 [IO wait, 5 minutes]:", false},
		{"goroutine 8 [sync.Mutex.Lock]:", false},
		{"goroutine 8 [sync.Cond.Wait]:", false},
		{"goroutine 10 [sleep]:", false},
		{"goroutine 11 [semacquire]:", false},
	} {
		dump := tc.header + "\nmain.f()\n\t/src/main.go:10 +0x1d\ncreated by main.main in goroutine 1\n\t/src/main.go:5 +0x25\n"
		want := 0
		if tc.busy {
			want = 1
		}
		if got := countBusy([]byte(dump)); got != want {
			t.Errorf("%q: counted %d busy, want %d", tc.header, got, want)
		}
	}

	// Only record headers count: a frame line that merely names a busy
	// state is not a goroutine.
	dump := "goroutine 1 [running]:\nmain.running()\n\t/src/running.go:1 +0x1\n\n" +
		"goroutine 2 [chan receive]:\nmain.g()\n\t/src/main.go:2 +0x1\n\n" +
		"goroutine 3 [runnable]:\nmain.h()\n\t/src/main.go:3 +0x1\n"
	if got := countBusy([]byte(dump)); got != 2 {
		t.Errorf("three-record dump: counted %d busy, want 2", got)
	}
}

func parkForCountBusy(ch chan struct{}) { <-ch }

// TestCountBusyLiveDump reads a real dump from this toolchain: the
// calling goroutine (always the first record) counts as busy, and a
// goroutine blocked on a channel does not.
func TestCountBusyLiveDump(t *testing.T) {
	ch := make(chan struct{})
	defer close(ch)
	go parkForCountBusy(ch)

	buf := make([]byte, 1<<20)
	var self, parked []byte
	for deadline := time.Now().Add(5 * time.Second); ; {
		records := bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n"))
		self, parked = records[0], nil
		for _, r := range records {
			if bytes.Contains(r, []byte("parkForCountBusy")) {
				parked = r
			}
		}
		if bytes.Contains(parked, []byte("[chan receive")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine never parked on its channel; its record:\n%s", parked)
		}
		runtime.Gosched()
	}
	if got := countBusy(self); got != 1 {
		t.Errorf("caller's own record counted %d busy, want 1:\n%s", got, self)
	}
	if got := countBusy(parked); got != 0 {
		t.Errorf("channel-blocked record counted %d busy, want 0:\n%s", got, parked)
	}
	if got := countBusy(bytes.Join([][]byte{self, parked}, []byte("\n\n"))); got != 1 {
		t.Errorf("caller + parked goroutine counted %d busy, want 1", got)
	}
}
