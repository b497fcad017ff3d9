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
// Peers may be faulty as the model allows, each by its sim.Fate (Fates), as
// on des: crashed from the start (such a peer never connects), crashing
// mid-run and perhaps rejoining, or Byzantine, running an adversary
// behavior in place of the protocol on its own client. Network faults go
// further: a seeded FaultPlan lets the hub
// drop, duplicate, delay, reorder and stall deliveries, sever connections
// that may reconnect, take the hub's listener down for a while, and
// impose timed partitions that later heal. A
// resilience layer keeps honest peers live through all of it — unacked
// frames are retransmitted until cumulatively acked (fair loss → reliable
// link), receivers dedup by per-sender sequence number, clients redial
// with capped exponential backoff, unanswered source queries are
// re-issued, and idle connections are detected by heartbeat-refreshed
// read deadlines. Timing is wall-clock, but the fault schedule itself is a
// pure function of the plan's seed, so a chaotic run's faults replay
// exactly. See docs/RUNTIMES.md for the full matrix and frame format.
//
// The files, by role: netrt.go holds Config, Resilience, Run and its
// errors; link.go the reliable link both ends run (the pure ARQ machine,
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

	"repro/internal/bitarray"
	"repro/internal/obs"
	"repro/internal/qplane"
	"repro/internal/sim"
	"repro/internal/source"
)

// defaultIdleTimeout is the dead-link detection window: a connection with
// no inbound traffic for this long is closed and treated as crashed.
// Heartbeats flow every third of the window, so live-but-quiet links
// never trip it.
const defaultIdleTimeout = 5 * time.Second

// reconnectMax caps the backoff between redial attempts.
const reconnectMax = time.Second

// Config describes one networked execution.
type Config struct {
	// N, T, L, MsgBits are the DR-model parameters.
	N, T, L, MsgBits int
	// Seed drives the input array and peer randomness.
	Seed int64
	// NewPeer constructs the protocol instance per peer.
	NewPeer func(sim.PeerID) sim.Peer
	// Fates lists the faulty peers, as sim.Spec.Faults does on des, with
	// the same action clock (sends, queries, deliveries). A peer that
	// never acts and never rejoins (CrashAfter 0, Downtime < 0) gets no
	// client: it never connects. A crashed peer with Downtime ≥ 0 restarts
	// after roughly Downtime seconds and rejoins warm from its on-disk
	// checkpoint via the resume handshake; the run waits for its DONE. A
	// Byzantine behavior runs on its own client like any other peer, so
	// everything it sends crosses the wire. At most T fates, unless
	// AllowExcess.
	Fates []sim.Fate
	// AllowExcess permits more than T fates (sim.Faults.AllowExcess).
	AllowExcess bool
	// Warm holds each peer's source-verified bits, as sim.Spec.Warm does
	// on des: a peer that runs NewPeer is served from its tracker where
	// it can, and its tracker learns every reply.
	Warm []*bitarray.Tracker
	// Absent lists peers that never connect: a crash fate at action 0.
	//
	// Deprecated: use Fates; validate appends these to them. It stays
	// because the benchmark harness sets it.
	Absent []sim.PeerID
	// Churn lists more fates.
	//
	// Deprecated: use Fates; validate appends these to them. It stays
	// because the benchmark harness sets it.
	Churn []sim.ChurnPeer
	// CheckpointDir is where churn peers persist durable checkpoints
	// (internal/checkpoint). Empty, a run with a rejoining churn peer
	// (Downtime ≥ 0) checkpoints to a temporary directory that Run
	// creates and removes. A missing or corrupt checkpoint at rejoin is a
	// cold start, never wrong bits.
	CheckpointDir string
	// Faults optionally injects a seeded network fault schedule at the
	// hub (drops, duplicates, delays, stalls, flaps, listener outages,
	// healed partitions).
	// Unlike Fates, a FaultPlan never counts toward T: honest
	// peers are expected to survive it via the resilience layer.
	Faults *FaultPlan
	// SourceFaults optionally makes the hub's source tier misbehave:
	// queries crossing it suffer the plan's outage windows, rate limit,
	// transient failures, and reply latency (source.FaultPlan units are
	// seconds here). Active refusals come back as QERR frames, which feed
	// the retry/backoff/breaker lifecycle of each client's query plane
	// (package qplane). Like Faults, a source plan never counts toward T.
	SourceFaults *source.FaultPlan
	// SourcePolicy tunes the clients' source resilience layer (times in
	// seconds); zero fields default per source.Policy, and a zero Seed
	// derives from Seed so backoff jitter is reproducible.
	SourcePolicy source.Policy
	// Mirrors, when non-nil and enabled, fronts the source with an
	// untrusted mirror fleet: QUERY frames draw proof-carrying QPROOF
	// replies that the client verifies against the hub-published ROOT
	// commitment, falling back to QUERYSRC (the authoritative tier,
	// itself subject to SourceFaults) when a proof fails. Q is charged at
	// the client's Query either way. Like Faults, mirrors never count
	// toward T.
	Mirrors *source.MirrorPlan
	// IdleTimeout overrides the dead-link detection window (default 5s).
	IdleTimeout time.Duration
	// Shards is unused: the hub has one listener. It stays because the
	// benchmark harness sets it.
	//
	// Deprecated: ignored.
	Shards int
	// ShardQueue is unused: a connection's one queue is its peer's outbox.
	// It stays because the benchmark harness sets it.
	//
	// Deprecated: ignored.
	ShardQueue int
	// Resilience tunes retry/reconnect behavior; zero fields default.
	Resilience Resilience
	// Timeout bounds the whole run (default 30s). When it fires, Run
	// returns a *TimeoutError naming the unterminated peers, beside the
	// settled Result with DeadlineHit set.
	Timeout time.Duration
	// Input optionally fixes the source array.
	Input *bitarray.Array
	// Metrics, when non-nil, receives the run's metrics: the protocol
	// series folded from the event stream (sim.MetricsObserver, prefix
	// dr_net), the query plane's dr_source_* and dr_mirror_* totals
	// (sim.PublishPlane), and the transport's own counters: frames and
	// bytes by kind and direction, backoff, dedup, fault-plan and writer
	// counters. Nil disables collection at zero cost.
	Metrics *obs.Registry
	// Observer, when non-nil, receives the run's events in the schema of
	// the des runtime (sim.ObservedEvent), Time in seconds since the run
	// started: each client emits its own peer's start, send, deliver,
	// query, qreply, qfail, phase, crash, rejoin and terminate, and the
	// socket-only reconnect, qretry and prooffail; the hub emits flap.
	// Callbacks come one at a time, under one lock per run. Nil costs
	// nothing.
	Observer sim.Observer
	// Timeline, when non-nil, marks the lifecycle events of the same
	// stream (sim.TimelineObserver).
	Timeline *obs.Timeline
	// Label is the "protocol" label value on metric series.
	Label string
}

// idleTimeout is IdleTimeout with its default applied.
func (c *Config) idleTimeout() time.Duration {
	if c.IdleTimeout > 0 {
		return c.IdleTimeout
	}
	return defaultIdleTimeout
}

// spec is the run's model as a sim.Spec, which both runtimes check
// alike (sim.Spec.Validate; a socket run has no delay policy).
func (c *Config) spec() *sim.Spec {
	return &sim.Spec{
		Config:  sim.Config{N: c.N, T: c.T, L: c.L, MsgBits: c.MsgBits, Seed: c.Seed, Input: c.Input},
		NewPeer: c.NewPeer,
		Faults:  sim.Faults{Fates: c.Fates, AllowExcess: c.AllowExcess},
		Warm:    c.Warm, SourceFaults: c.SourceFaults, Mirrors: c.Mirrors,
	}
}

func (c *Config) validate() error {
	// The deprecated spellings become fates, appended to a copy so the
	// caller's array is never written.
	c.Fates = append(slices.Clip(c.Fates), sim.Crashes(c.Absent, 0)...)
	c.Fates = append(c.Fates, c.Churn...)
	c.Absent, c.Churn = nil, nil
	if err := c.spec().Validate(); err != nil {
		return fmt.Errorf("netrt: %w", err)
	}
	if c.Faults != nil {
		return c.Faults.validate(c.N)
	}
	return nil
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

// TimeoutError reports which peers were still running when Config.Timeout
// elapsed, replacing the former silent non-termination result so a hung
// run names its suspects.
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

// Run executes the configuration and reports the outcome in the same
// Result shape as the simulation runtimes. Peers that never connect are
// reported as crashed/faulty. A run whose honest peers outlast Timeout fails with a
// *TimeoutError, and its Result, with DeadlineHit set and the peers still
// running counted as not terminated, comes back beside it.
func Run(cfg Config) (*sim.Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if cfg.CheckpointDir == "" && slices.ContainsFunc(cfg.Fates, func(f sim.Fate) bool { return f.Rejoins() }) {
		dir, err := os.MkdirTemp("", "netrt-ckpt")
		if err != nil {
			return nil, fmt.Errorf("netrt: checkpoint dir: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	spec := cfg.spec()
	input := spec.Config.ResolveInput()

	start := time.Now()
	ev := newEvents(&cfg, start)
	h, err := newHub(cfg, input, newNetMetrics(&cfg), ev, start)
	if err != nil {
		return nil, err
	}
	defer h.close()

	for _, f := range cfg.Fates {
		if f.Absent() {
			ev.peer(sim.KindCrash, f.Peer, "", 0) // as des crashes a peer at its first action
		}
	}
	// One Knowledge serves every Byzantine peer, as on des; behaviors
	// only read it.
	know := spec.Faults.Knowledge(input, spec.Config)

	// Each client drives its peer's query plane, which charges Q at Query
	// and keeps the peer's accounting in stats across both incarnations
	// of a rejoining peer; the hub adds its half at the end.
	tier := qplane.NewRemoteTier(cfg.L, cfg.Seed, cfg.SourcePolicy)
	stats := make([]sim.PeerStats, cfg.N)
	var clients sync.WaitGroup
	errs := make(chan error, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id, fate := sim.PeerID(i), h.fates[i]
		if fate.Absent() {
			continue
		}
		q := tier.NewPlane(i, &stats[i], fate.Rejoins(), spec.PeerWarm(i, fate))
		newPeer := cfg.NewPeer
		if fate != nil && fate.Byzantine != nil {
			newPeer = func(id sim.PeerID) sim.Peer { return fate.Byzantine(id, know) }
		}
		clients.Add(1)
		go func() {
			defer clients.Done()
			if err := runClient(&cfg, id, fate, newPeer, h.addr, q, &stats[id], h.met, ev, start, h.stop); err != nil {
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
	if cfg.SourceFaults.Enabled() || cfg.Mirrors.Enabled() {
		sim.PublishPlane(cfg.Metrics, cfg.Label, stats)
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
