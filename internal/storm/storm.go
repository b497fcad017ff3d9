// Package storm composes every fault plane the repo implements into one
// seeded nemesis schedule and checks the model's invariants under it.
//
// The isolated robustness suites each exercise one adversary at a time:
// a chaos grid injects network faults, the source tier injects outages, the
// mirror tier injects forged proofs, and the churn suites crash and
// rejoin peers. A storm layers all of them onto a single socket-runtime
// execution — seeded network chaos × a flaky source × a
// Byzantine-majority mirror fleet × crash-recovery churn × a hub listener
// outage — because real deployments compose failures, and the paper's
// guarantees must survive the composition, not just each summand.
//
// Everything is a pure function of one storm seed: Generate derives the
// composed Spec, Run executes it on real TCP sockets, and Check holds
// the outcome to the invariants that define "survived":
//
//   - every honest peer terminates with output == X;
//   - Q stays within the protocol's complexity envelope (unverified
//     mirror bits or double-charged retries would push it out);
//   - every rejoining churn peer restarts warm from its durable
//     checkpoint and still terminates; peers that crash for good are
//     accounted inside the fault budget t;
//   - rejected mirror proofs were re-fetched from the authoritative
//     tier, never silently accepted.
//
// A failing storm is bridged onto the deterministic engine (see
// replay.go): the same composition minus the socket-only network plane
// is re-recorded as a dst replay, minimized by the shrinker, and saved
// as a .dsr artifact.
package storm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/download"
	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/source"
)

// ChurnEntry is one crash-recovery churn peer of a storm: the peer
// crashes itself after CrashAfter protocol actions and, when Downtime is
// non-negative, rejoins after roughly Downtime seconds, restoring warm
// state from its durable checkpoint. Downtime < 0 crashes for good.
type ChurnEntry struct {
	Peer       int     `json:"peer"`
	CrashAfter int     `json:"crash_after"`
	Downtime   float64 `json:"downtime"`
}

// NetPlan is the storm's network-chaos plane, lowered onto a
// netrt.FaultPlan at run time. All fields are hub-side link faults that
// never count toward the fault budget t.
type NetPlan struct {
	Drop      float64 `json:"drop"`
	Dup       float64 `json:"dup"`
	Reorder   float64 `json:"reorder"`
	DelayMs   int     `json:"delay_ms"`
	Flaps     int     `json:"flaps"`
	Partition bool    `json:"partition,omitempty"`
	// Outage, when set, takes the hub's listener down once mid-run.
	Outage *Outage `json:"outage,omitempty"`
}

// Outage is one hub listener outage: AfterMs into the run the listener
// closes and every connection is severed, and DownMs later it is back.
type Outage struct {
	AfterMs int `json:"after_ms"`
	DownMs  int `json:"down_ms"`
}

// Spec is one fully derived storm: the DR-model parameters plus a value
// for every fault plane. It is JSON-serializable so a failing storm's
// exact composition lands in the artifact directory next to its .dsr.
type Spec struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	T        int    `json:"t"`
	L        int    `json:"l"`
	MsgBits  int    `json:"msg_bits"`
	// Seed drives the input array and peer randomness (sim.Config.Seed);
	// StormSeed is the master seed the whole composition was derived
	// from. Two specs with equal StormSeed and parameters are identical.
	Seed      int64 `json:"seed"`
	StormSeed int64 `json:"storm_seed"`
	// Absent peers crash before starting and count toward T.
	Absent []int `json:"absent,omitempty"`
	// Churn peers crash mid-run (and maybe rejoin); they count toward T.
	Churn []ChurnEntry `json:"churn,omitempty"`
	// SourceFaults is the source fault plan, its time-valued fields in
	// seconds; DesReplay scales them to des steps.
	SourceFaults string `json:"source_faults,omitempty"`
	// Mirrors, when non-empty, fronts the source with an untrusted
	// (usually Byzantine-majority) mirror fleet.
	Mirrors string `json:"mirrors,omitempty"`
	// Net is the socket-only network chaos plane.
	Net NetPlan `json:"net"`
}

// Rejoins returns the number of churn peers expected to rejoin.
func (s *Spec) Rejoins() int {
	n := 0
	for _, c := range s.Churn {
		if c.Downtime >= 0 {
			n++
		}
	}
	return n
}

// Fates lowers the crash plane to the faulty peers' fates: each absent
// peer never acts, and each churn peer crashes as its entry says.
func (s *Spec) Fates() []sim.Fate {
	var fates []sim.Fate
	for _, p := range s.Absent {
		fates = append(fates, sim.Fate{Peer: sim.PeerID(p), Downtime: -1})
	}
	for _, c := range s.Churn {
		fates = append(fates, sim.Fate{Peer: sim.PeerID(c.Peer), CrashAfter: c.CrashAfter, Downtime: c.Downtime})
	}
	return fates
}

// Generate derives the composed storm for one master seed. The draw
// order below is fixed and load-bearing: the pinned storm replay is
// byte-identical across regenerations only while equal (parameters,
// stormSeed) keep producing the identical Spec.
func Generate(proto download.Protocol, n, t, l, b int, stormSeed int64) Spec {
	rng := rand.New(rand.NewSource(stormSeed))
	row, _ := protocols.Lookup(string(proto))
	spec := Spec{
		Protocol: string(proto),
		N:        n, T: t, L: l, MsgBits: b,
		StormSeed: stormSeed,
		Seed:      1 + rng.Int63n(1<<31),
	}

	// Crash plane: churn inside the fault budget, at most two peers so
	// small grids keep an honest majority of survivors.
	budget := t
	if budget > 0 {
		count := 1 + rng.Intn(min(budget, 2))
		perm := rng.Perm(n)
		for i := 0; i < count; i++ {
			ce := ChurnEntry{Peer: perm[i], CrashAfter: 2 + rng.Intn(5), Downtime: -1}
			if row != nil && row.StormRejoin && rng.Float64() < 0.75 {
				// A rejoining peer must actually crash for the rejoin
				// invariant to be checkable, so pin its crash point below
				// the protocol's action count: naive's action clock runs
				// init, query, delivery — CrashAfter=2 crashes it
				// deterministically at the first reply delivery on every
				// runtime (the same point the conformance churn rows pin).
				ce.CrashAfter = 2
				ce.Downtime = 0.1 + 0.3*rng.Float64()
			}
			spec.Churn = append(spec.Churn, ce)
		}
		budget -= count
		// Maybe spend one more budget slot on a peer that never starts.
		if budget > 0 && rng.Float64() < 0.5 {
			spec.Absent = append(spec.Absent, perm[count])
		}
	}

	// Source plane: always on — transient failures plus one outage
	// window a few hundred ms into a run lasting a couple of seconds.
	failRate := 0.05 + 0.2*rng.Float64()
	oStart := 0.3 * rng.Float64()
	oEnd := oStart + 0.1 + 0.3*rng.Float64()
	srcSeed := 1 + rng.Int63n(1000)
	spec.SourceFaults = fmt.Sprintf("fail=%.2f,outage=%.2f..%.2f,seed=%d",
		failRate, oStart, oEnd, srcSeed)

	// Mirror plane: usually a Byzantine-majority fleet cycling the
	// concrete misbehaviors; proofs must keep wrong bits out of Q.
	if rng.Float64() < 0.6 {
		spec.Mirrors = fmt.Sprintf("mirrors=5,byz=3,behavior=mixed,seed=%d", 1+rng.Int63n(1000))
	}

	// Network plane: drops, duplicates, jitter with reordering, a few
	// connection flaps, and (on grids big enough) one healed partition.
	spec.Net = NetPlan{
		Drop:    0.15 * rng.Float64(),
		Dup:     0.15 * rng.Float64(),
		Reorder: 0.10 * rng.Float64(),
		DelayMs: 1 + rng.Intn(3),
		Flaps:   rng.Intn(3),
	}
	if n >= 4 && rng.Float64() < 0.5 {
		spec.Net.Partition = true
	}

	// Listener outage: maybe take the hub's listener down once. The draws
	// are those of the sharded hub it replaced — a shard count, and for a
	// bounce the index of the bounced shard, both dropped — so every seed
	// still composes the same other planes.
	if shards := 1 + rng.Intn(2); shards > 1 && rng.Float64() < 0.5 {
		_ = rng.Intn(shards)
		spec.Net.Outage = &Outage{AfterMs: 30 + rng.Intn(50), DownMs: 100 + rng.Intn(150)}
	}
	return spec
}

// Grid builds the specs of a chaos sweep for one protocol: every (drop,
// flaps) cell of network chaos at duplication 0.1, 2 ms jitter,
// reordering 0.05 and — when n ≥ 4 — one healed partition, with no faulty
// peer (T = 0), run under seeds 1..seeds. sourceFaults, when set, layers
// a source fault plan on every run. Cells come drop-major, then by flaps,
// then by seed.
func Grid(proto download.Protocol, n, l, b int, drops []float64, flaps []int, seeds int, sourceFaults string) []Spec {
	var specs []Spec
	for _, d := range drops {
		for _, f := range flaps {
			for seed := 1; seed <= seeds; seed++ {
				specs = append(specs, Spec{
					Protocol: string(proto), N: n, L: l, MsgBits: b,
					Seed:         int64(seed),
					SourceFaults: sourceFaults,
					Net: NetPlan{
						Drop: d, Dup: 0.1, Reorder: 0.05, DelayMs: 2,
						Flaps: f, Partition: n >= 4,
					},
				})
			}
		}
	}
	return specs
}

// Name is the base name of the spec's finding artifacts: a generated
// storm is named by its storm seed, a grid cell, which has none, by its
// drop rate, flap count and run seed.
func (s *Spec) Name() string {
	if s.StormSeed != 0 {
		return fmt.Sprintf("storm-%s-s%d", s.Protocol, s.StormSeed)
	}
	return fmt.Sprintf("storm-%s-d%.2f-f%d-seed%d", s.Protocol, s.Net.Drop, s.Net.Flaps, s.Seed)
}

// RunOptions tunes storm execution.
type RunOptions struct {
	// Timeout bounds the socket run (default 30s).
	Timeout time.Duration
	// Metrics/Timeline optionally observe the run (drstorm -obs).
	Metrics  *obs.Registry
	Timeline *obs.Timeline
}

// Run executes the storm on the real-socket runtime. It builds the run's
// sim.Spec — source plan, mirror fleet, churn schedule — and its
// netrt.Net — fault plan with its listener outage — and returns the
// runtime's result. The error
// return carries config or termination failures; a run that timed out
// (*netrt.TimeoutError, honest peers still running) returns its settled
// result, DeadlineHit set, beside the error. Invariant checking is Check's
// job so a caller can hold a partially failed run to the full list.
func Run(spec Spec, opts RunOptions) (*sim.Result, error) {
	factory, err := download.Protocol(spec.Protocol).Factory()
	if err != nil {
		return nil, err
	}
	srcPlan, err := source.ParsePlan(spec.SourceFaults)
	if err != nil {
		return nil, fmt.Errorf("storm: source plan: %w", err)
	}
	mirPlan, err := source.ParseMirrorPlan(spec.Mirrors)
	if err != nil {
		return nil, fmt.Errorf("storm: mirror plan: %w", err)
	}

	plan := &netrt.FaultPlan{
		Seed:    spec.Seed * 7919,
		Drop:    spec.Net.Drop,
		Dup:     spec.Net.Dup,
		Delay:   time.Duration(spec.Net.DelayMs) * time.Millisecond,
		Reorder: spec.Net.Reorder,
	}
	if spec.Net.Flaps > 0 {
		plan.Flaps = make(map[sim.PeerID][]time.Duration)
		for k := 0; k < spec.Net.Flaps; k++ {
			p := sim.PeerID(k % spec.N)
			at := 20*time.Millisecond + time.Duration(k)*60*time.Millisecond
			plan.Flaps[p] = append(plan.Flaps[p], at)
		}
	}
	if spec.Net.Partition && spec.N >= 4 {
		plan.Partitions = []netrt.Partition{{
			A:     []sim.PeerID{0, 1},
			B:     []sim.PeerID{2, 3},
			Start: 40 * time.Millisecond,
			Heal:  400 * time.Millisecond,
		}}
	}
	if o := spec.Net.Outage; o != nil {
		plan.Outages = []netrt.Outage{{
			At:   time.Duration(o.AfterMs) * time.Millisecond,
			Down: time.Duration(o.DownMs) * time.Millisecond,
		}}
	}

	return netrt.Runner(netrt.Net{
		Faults: plan,
		Resilience: netrt.Resilience{
			QueryTimeout: 250 * time.Millisecond,
			RTO:          60 * time.Millisecond,
		},
	})(&sim.Spec{
		Config:       sim.Config{N: spec.N, T: spec.T, L: spec.L, MsgBits: spec.MsgBits, Seed: spec.Seed},
		NewPeer:      factory,
		Faults:       sim.Faults{Fates: spec.Fates()},
		SourceFaults: srcPlan,
		Mirrors:      mirPlan,
		Observer:     sim.TimelineObserver(opts.Timeline),
		Metrics:      opts.Metrics,
		Label:        spec.Protocol,
		Deadline:     opts.Timeout.Seconds(),
	})
}

// Violation is one breached storm invariant.
type Violation struct {
	// Invariant names the breached property: "termination",
	// "correctness", "envelope", "rejoin", "checkpoint", "mirror".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Check holds one storm outcome to the invariants. runErr is Run's error
// return (a timeout with honest peers still running is itself a
// termination violation); res may be non-nil alongside a non-nil error.
// An empty slice means the storm was survived.
func Check(spec Spec, res *sim.Result, runErr error) []Violation {
	var vs []Violation
	if runErr != nil {
		vs = append(vs, Violation{"termination", runErr.Error()})
	}
	if res == nil {
		return vs
	}
	if !res.Correct {
		detail := "honest peer output differs from X"
		if len(res.Failures) > 0 {
			detail = fmt.Sprintf("%v", res.Failures)
		}
		vs = append(vs, Violation{"correctness", detail})
	}

	// Complexity envelope: unverified mirror bits or double-charged
	// retries would inflate Q past the per-protocol bound.
	for _, v := range protocols.CheckEnvelope(spec.Protocol,
		spec.N, spec.T, spec.L, spec.MsgBits, res.Q, res.Msgs) {
		vs = append(vs, Violation{"envelope", v})
	}

	// Crash-recovery accounting: every rejoining churn peer must have
	// crashed, come back, and finished; its warm state must have come
	// from a durable checkpoint restore (the socket runtime's churn
	// peers have no in-memory fallback across incarnations).
	wantRejoins := spec.Rejoins()
	if res.Rejoins != wantRejoins {
		vs = append(vs, Violation{"rejoin",
			fmt.Sprintf("%d rejoins, want %d", res.Rejoins, wantRejoins)})
	}
	for _, c := range spec.Churn {
		if c.Downtime < 0 || c.Peer >= len(res.PerPeer) {
			continue
		}
		ps := &res.PerPeer[c.Peer]
		if !ps.Crashed || !ps.Rejoined || !ps.Terminated {
			vs = append(vs, Violation{"rejoin",
				fmt.Sprintf("churn peer %d: crashed=%v rejoined=%v terminated=%v",
					c.Peer, ps.Crashed, ps.Rejoined, ps.Terminated)})
		}
	}
	if wantRejoins > 0 && (res.CheckpointSaves < wantRejoins || res.CheckpointRestores < wantRejoins) {
		vs = append(vs, Violation{"checkpoint",
			fmt.Sprintf("saves=%d restores=%d, want >= %d of each",
				res.CheckpointSaves, res.CheckpointRestores, wantRejoins)})
	}

	// Mirror accounting: a rejected proof must have been re-fetched from
	// the authoritative tier — a failure that produced no fallback means
	// a peer either stalled on it or accepted unverified bits.
	if spec.Mirrors != "" && res.ProofFailures > 0 && res.FallbackQueries == 0 {
		vs = append(vs, Violation{"mirror",
			fmt.Sprintf("%d proof failures but no authoritative fallback queries", res.ProofFailures)})
	}
	return vs
}

// Tally sums what a set of storm runs went through, as drstorm reports
// it: how many survived, and the recovery counters of their results.
type Tally struct {
	Runs, Survived                                               int
	Rejoins, CheckpointSaves, CheckpointRestores                 int
	QueryRetries, Reconnects                                     int
	SourceFailures, SourceRetries, BreakerOpens, DeferredQueries int
	MirrorHits, ProofFailures, FallbackQueries                   int
	// PlanDropped, PlanDuped and DupFramesDropped sum the per-peer
	// fault-plan and dedup counters.
	PlanDropped, PlanDuped, DupFramesDropped int
}

// Add counts one run: vs is what Check found, and res, which may be nil,
// is Run's result.
func (t *Tally) Add(res *sim.Result, vs []Violation) {
	t.Runs++
	if len(vs) == 0 {
		t.Survived++
	}
	if res == nil {
		return
	}
	t.Rejoins += res.Rejoins
	t.CheckpointSaves += res.CheckpointSaves
	t.CheckpointRestores += res.CheckpointRestores
	t.QueryRetries += res.QueryRetries
	t.Reconnects += res.Reconnects
	t.SourceFailures += res.SourceFailures
	t.SourceRetries += res.SourceRetries
	t.BreakerOpens += res.BreakerOpens
	t.DeferredQueries += res.DeferredQueries
	t.MirrorHits += res.MirrorHits
	t.ProofFailures += res.ProofFailures
	t.FallbackQueries += res.FallbackQueries
	for i := range res.PerPeer {
		ps := &res.PerPeer[i]
		t.PlanDropped += ps.PlanDropped
		t.PlanDuped += ps.PlanDuped
		t.DupFramesDropped += ps.DupFramesDropped
	}
}
