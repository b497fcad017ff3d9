// Package netrt runs Download protocols over real TCP sockets: every peer
// is a client holding one connection to a hub, which routes peer-to-peer
// frames and serves source queries. Messages travel as actual bytes
// (package wire), so this runtime exercises the full stack — protocol
// logic, codec, framing, concurrency — under genuine network I/O, which
// neither simulation runtime does.
//
// The hub plays the network and the trusted source of the DR model:
//
//	peer ──TCP──▶ hub ──TCP──▶ peer      (MSG frames, wire-encoded)
//	peer ──TCP──▶ hub (source) ──▶ peer  (QUERY/QREPLY frames)
//
// A run is a *sim.Spec, the one the des runtime runs, plus the Net
// settings des has no counterpart for (Runner). Peers may be faulty as the
// model allows, each by its sim.Fate (sim.Spec.Faults), as on des: crashed
// from the start (such a peer never connects), crashing mid-run and
// perhaps rejoining, or Byzantine, running an adversary behavior in place
// of the protocol on its own client. Network faults go further: a seeded
// FaultPlan (Net.Faults) lets the hub drop, duplicate, delay, reorder and
// stall deliveries, sever connections that may reconnect, take the hub's
// listener down for a while, and impose timed partitions that later heal.
// A resilience layer keeps honest peers live through all of it — unacked
// frames are retransmitted until cumulatively acked (fair loss → reliable
// link), receivers dedup by per-sender sequence number, clients redial
// with capped exponential backoff, unanswered source queries are
// re-issued, and idle connections are detected by heartbeat-refreshed
// read deadlines. Timing is wall-clock, but the fault schedule itself is a
// pure function of the plan's seed, so a chaotic run's faults replay
// exactly. See docs/RUNTIMES.md for the full matrix and frame format.
//
// The files, by role: netrt.go holds Net, Resilience, Runner and its
// errors; config.go the deprecated Config and its lowering to a spec and
// a Net; link.go the reliable link both ends run (the pure ARQ machine,
// stream, and its glue to the installed connection); hub.go the hub;
// client.go a peer's client, whose query-plane driver and timers are in
// query.go; frame.go and proofframe.go the frames and their I/O;
// faultplan.go the fault schedule and the hub's arming of it; loadgen.go
// the hub alone (StartHub) and drload's raw-frame clients; obsmetrics.go
// the event stream and the metrics.
package netrt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/qplane"
	"repro/internal/sim"
)

// defaultIdleTimeout is the dead-link detection window: a connection with
// no inbound traffic for this long is closed and treated as crashed.
// Heartbeats flow every third of the window, so live-but-quiet links
// never trip it.
const defaultIdleTimeout = 5 * time.Second

// reconnectMax caps the backoff between redial attempts.
const reconnectMax = time.Second

// Net holds the settings of a socket run that des has no counterpart for;
// everything else, the model, the fates and the source included, is the
// *sim.Spec that Runner runs. The zero value is a clean network with
// default resilience.
type Net struct {
	// Faults optionally injects a seeded network fault schedule at the
	// hub (drops, duplicates, delays, stalls, flaps, listener outages,
	// healed partitions). Unlike the spec's fates, a FaultPlan never
	// counts toward T: honest peers are expected to survive it via the
	// resilience layer.
	Faults *FaultPlan
	// Resilience tunes retry/reconnect behavior; zero fields default.
	Resilience Resilience
	// IdleTimeout overrides the dead-link detection window (default 5s).
	IdleTimeout time.Duration
	// CheckpointDir is where rejoining peers persist durable checkpoints
	// (internal/checkpoint). Empty, a run with a rejoining fate
	// (Downtime ≥ 0) checkpoints to a temporary directory that the run
	// creates and removes. A missing or corrupt checkpoint at rejoin is a
	// cold start, never wrong bits.
	CheckpointDir string
}

// idleTimeout is IdleTimeout with its default applied.
func (n *Net) idleTimeout() time.Duration {
	if n.IdleTimeout > 0 {
		return n.IdleTimeout
	}
	return defaultIdleTimeout
}

// runTimeout is the wall-clock bound of a run of spec: its Deadline in
// seconds, 30 s when it sets none.
func runTimeout(spec *sim.Spec) time.Duration {
	if spec.Deadline > 0 {
		return time.Duration(spec.Deadline * float64(time.Second))
	}
	return 30 * time.Second
}

// Runner returns the socket runtime as a sim.Runner: each call runs its
// spec over real TCP sockets with net's settings, and reports the outcome
// in the same Result shape as des. The spec reads as it does on des, with
// these differences:
//
//   - Deadline is the run's wall-clock timeout in seconds (0 means 30 s).
//     A run whose honest peers outlast it fails with a *TimeoutError, and
//     its Result, with DeadlineHit set and the peers still running counted
//     as not terminated, comes back beside it.
//   - Delays and MaxEvents are des's and are ignored: the network and the
//     Go scheduler order the deliveries.
//   - A fate that never acts and never rejoins (CrashAfter 0, Downtime < 0)
//     gets no client: the peer never connects. A crashed peer with
//     Downtime ≥ 0 restarts after roughly Downtime seconds and rejoins
//     warm from its on-disk checkpoint via the resume handshake; the run
//     waits for its DONE. A Byzantine behavior runs on its own client like
//     any other peer, so everything it sends crosses the wire.
//   - SourceFaults' times are seconds; active refusals come back as QERR
//     frames, which feed each client's query plane (package qplane).
//     Mirrors front the source with QPROOF replies that the client
//     verifies against the hub-published ROOT commitment, falling back to
//     QUERYSRC when a proof fails. Neither counts toward T.
//   - Observer receives the run's events, Time in seconds since the run
//     started: each client emits its own peer's events, plus the
//     socket-only reconnect, qretry and prooffail; the hub emits flap.
//   - Metrics receives, beside the protocol series (prefix dr_net) and the
//     query plane's totals, the transport's own counters: frames and bytes
//     by kind and direction, backoff, dedup, fault-plan and writer
//     counters.
func Runner(net Net) sim.Runner {
	return func(spec *sim.Spec) (*sim.Result, error) { return run(spec, net) }
}

// PendingPeer describes one honest peer that had not terminated when the
// run's deadline fired.
type PendingPeer struct {
	ID sim.PeerID
	// Connected reports whether the peer held a live connection.
	Connected bool
	// LastFrame is the kind of the last protocol frame (MSG/QUERY/DONE)
	// the hub saw from the peer, "" if none arrived.
	LastFrame string
	// LastFrameAge is how long before the deadline that frame arrived.
	LastFrameAge time.Duration
	// Unacked is the depth of the hub's outbox toward the peer; AckBase
	// the position of that stream the peer is known to hold.
	Unacked int
	AckBase uint64
}

// TimeoutError reports which peers were still running when the run's
// timeout (the spec's Deadline) elapsed, replacing the former silent
// non-termination result so a hung run names its suspects.
type TimeoutError struct {
	After   time.Duration
	Pending []PendingPeer
	// Stacks is the goroutine profile (debug=1) taken as the deadline
	// fired: a stalled run's wait cycle shows in it.
	Stacks []byte
}

func (e *TimeoutError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netrt: run timed out after %v; %d peer(s) unterminated:", e.After, len(e.Pending))
	for _, p := range e.Pending {
		switch {
		case !p.Connected && p.LastFrame == "":
			fmt.Fprintf(&b, " peer %d (never heard from)", p.ID)
		case p.LastFrame == "":
			fmt.Fprintf(&b, " peer %d (connected, no protocol frames)", p.ID)
		default:
			fmt.Fprintf(&b, " peer %d (last %s %.1fs ago)", p.ID, p.LastFrame, p.LastFrameAge.Seconds())
		}
	}
	return b.String()
}

// run is one call of Runner(net). Peers that never connect are reported
// as crashed and faulty.
func run(spec *sim.Spec, net Net) (*sim.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("netrt: %w", err)
	}
	c := &spec.Config
	if err := net.Faults.validate(c.N); err != nil {
		return nil, err
	}
	timeout := runTimeout(spec)
	fates := spec.Faults.Fates
	if net.CheckpointDir == "" && slices.ContainsFunc(fates, func(f sim.Fate) bool { return f.Rejoins() }) {
		dir, err := os.MkdirTemp("", "netrt-ckpt")
		if err != nil {
			return nil, fmt.Errorf("netrt: checkpoint dir: %w", err)
		}
		defer os.RemoveAll(dir)
		net.CheckpointDir = dir
	}
	input := c.ResolveInput()

	start := time.Now()
	ev := newEvents(spec, start)
	h, err := newHub(spec, &net, input, newNetMetrics(spec), ev, start)
	if err != nil {
		return nil, err
	}
	defer h.close()

	for _, f := range fates {
		if f.Absent() {
			ev.peer(sim.KindCrash, f.Peer, "", 0) // as des crashes a peer at its first action
		}
	}
	// One Knowledge serves every Byzantine peer, as on des; behaviors
	// only read it.
	know := spec.Faults.Knowledge(input, *c)

	// Each client drives its peer's query plane, which charges Q at Query
	// and keeps the peer's accounting in stats across both incarnations
	// of a rejoining peer; the hub adds its half at the end.
	tier := qplane.NewRemoteTier(c.L, c.Seed, spec.SourcePolicy)
	stats := make([]sim.PeerStats, c.N)
	var clients sync.WaitGroup
	errs := make(chan error, c.N)
	for i := 0; i < c.N; i++ {
		id, fate := sim.PeerID(i), h.fates[i]
		if fate.Absent() {
			continue
		}
		q := tier.NewPlane(i, &stats[i], fate.Rejoins(), spec.PeerWarm(i, fate))
		newPeer := spec.NewPeer
		if fate != nil && fate.Byzantine != nil {
			newPeer = func(id sim.PeerID) sim.Peer { return fate.Byzantine(id, know) }
		}
		clients.Add(1)
		go func() {
			defer clients.Done()
			if err := runClient(spec, &net, id, fate, newPeer, h.addr, q, &stats[id], h.met, ev, start, h.stop); err != nil {
				errs <- fmt.Errorf("peer %d: %w", id, err)
			}
		}()
	}

	select {
	case <-h.allDone:
	case <-time.After(timeout):
		err = h.timeoutError(timeout)
	case err = <-errs:
	}
	h.close()
	clients.Wait()
	// Every client has settled its plane into stats, failed runs' too.
	if spec.SourceFaults.Enabled() || spec.Mirrors.Enabled() {
		sim.PublishPlane(spec.Metrics, spec.Label, stats)
	}
	var terr *TimeoutError
	if err != nil && !errors.As(err, &terr) {
		return nil, err
	}

	res := h.result(stats)
	res.DeadlineHit = terr != nil
	res.Finalize(input)
	return res, err
}

// errHubGone ends a redial quietly: the hub stopped, or the run completed.
var errHubGone = errors.New("netrt: hub gone")

// sockControl, set only by tests, adjusts every socket before it listens or
// connects; accepted sockets inherit their listener's settings.
var sockControl func(network, address string, c syscall.RawConn) error

// listen opens a hub listener on addr.
func listen(addr string) (net.Listener, error) {
	return (&net.ListenConfig{Control: sockControl}).Listen(context.Background(), "tcp", addr)
}

// dial connects to the hub listener at addr.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	return (&net.Dialer{Timeout: timeout, Control: sockControl}).Dial("tcp", addr)
}

// Resilience tunes the retry/reconnect behavior of the runtime. The zero
// value selects defaults (see withDefaults); fields are only knobs — the
// mechanisms are always on, they just never fire on a clean network.
type Resilience struct {
	// QueryTimeout is how long the client waits for the reply to a sent
	// source query before the attempt fails as a lost reply
	// (source.KindTimeout) and the query plane rules on it. Default 500ms.
	QueryTimeout time.Duration
	// ReconnectBase is the first delay of the exponential backoff between
	// redial attempts (±50% jitter), capped at reconnectMax. Default 25ms.
	ReconnectBase time.Duration
	// ReconnectAttempts bounds consecutive failed redials before a
	// client gives up. Default 12.
	ReconnectAttempts int
	// RTO is the retransmission timeout for unacked reliable frames: the
	// hub resends a frame unacked for RTO, a client one unacked for
	// 4·RTO. Default 150ms.
	RTO time.Duration
}

func (r Resilience) withDefaults() Resilience {
	if r.QueryTimeout <= 0 {
		r.QueryTimeout = 500 * time.Millisecond
	}
	if r.ReconnectBase <= 0 {
		r.ReconnectBase = 25 * time.Millisecond
	}
	if r.ReconnectAttempts <= 0 {
		r.ReconnectAttempts = 12
	}
	if r.RTO <= 0 {
		r.RTO = 150 * time.Millisecond
	}
	return r
}
