//go:build unix

package netrt

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/protocols/committee"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/protocols/multicycle"
	"repro/internal/protocols/naive"
	"repro/internal/protocols/twocycle"
	"repro/internal/sim"
)

// smallBuffers gives both ends of every connection the runtime makes 8 KiB
// socket buffers, from before it connects, for the rest of the test: far
// less than the frames a download keeps in flight, so any wait cycle
// through a full socket shows.
func smallBuffers(t *testing.T) {
	sockControl = func(_, _ string, c syscall.RawConn) error {
		var err error
		if cerr := c.Control(func(fd uintptr) {
			for _, opt := range []int{syscall.SO_RCVBUF, syscall.SO_SNDBUF} {
				if err == nil {
					err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, 8<<10)
				}
			}
		}); cerr != nil {
			return cerr
		}
		return err
	}
	t.Cleanup(func() { sockControl = nil })
}

// TestNoStallAtSmallBuffers: every protocol downloads correctly over
// sockets whose buffers are 8 KiB at both ends, within 5 s. A read loop
// that waits on its own connection's write, or a hub that stops reading
// while it waits on a full socket, hangs crash1, crashk and committee
// here.
func TestNoStallAtSmallBuffers(t *testing.T) {
	smallBuffers(t)
	const n, l = 32, 16384
	for _, p := range []struct {
		name    string
		newPeer func(sim.PeerID) sim.Peer
	}{
		{"naive", naive.New}, {"crash1", crash1.New}, {"crashk", crashk.New},
		{"committee", committee.New}, {"twocycle", twocycle.New}, {"multicycle", multicycle.New},
	} {
		t.Run(p.name, func(t *testing.T) {
			start := time.Now()
			res, err := Run(Config{N: n, T: 8, L: l, MsgBits: l / n, Seed: 1, NewPeer: p.newPeer,
				Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res.Failures)
			}
			t.Logf("%d messages in %v", res.Msgs, time.Since(start).Round(time.Millisecond))
		})
	}
}
