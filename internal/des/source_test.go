package des_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/protocols/naive"
	"repro/internal/sim"
	"repro/internal/source"
)

// seq returns [lo, hi).
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func mustPlan(t *testing.T, s string) *source.FaultPlan {
	t.Helper()
	p, err := source.ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return p
}

func TestSourceFlakyRetriesToCompletion(t *testing.T) {
	spec := naiveSpec(3)
	spec.NewPeer = naive.NewBatched(32)
	spec.SourceFaults = mustPlan(t, "fail=0.3,seed=5")
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("flaky source must not break correctness: %v", res)
	}
	if res.SourceFailures == 0 || res.SourceRetries == 0 {
		t.Errorf("fail=0.3 run recorded failures=%d retries=%d, want both > 0",
			res.SourceFailures, res.SourceRetries)
	}
	// Q charges each logical query once: retries are recovery work, not
	// query complexity.
	if res.Q != 256 {
		t.Errorf("Q = %d under retries, want L = 256", res.Q)
	}
}

func TestSourceOutageOpensBreaker(t *testing.T) {
	spec := naiveSpec(4)
	spec.NewPeer = naive.NewBatched(64)
	spec.SourceFaults = mustPlan(t, "outage=0..3,seed=2")
	spec.SourcePolicy = source.Policy{BreakerThreshold: 2, BreakerCooldown: 0.5}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("outage must heal and the run complete: %v", res)
	}
	if res.BreakerOpens == 0 {
		t.Errorf("a 3-unit outage at start must open breakers, got 0 opens")
	}
	if res.DegradedTime <= 0 {
		t.Errorf("DegradedTime = %v, want > 0", res.DegradedTime)
	}
	if res.Time < 3 {
		t.Errorf("finished at t=%v, before the outage healed at t=3", res.Time)
	}
	if res.Q != 256 {
		t.Errorf("Q = %d under an outage, want L = 256", res.Q)
	}
}

func TestSourceRateLimitRecovers(t *testing.T) {
	spec := naiveSpec(9)
	spec.NewPeer = naive.NewBatched(32)
	// Burst below the aggregate initial demand (8 peers × 256 bits), but
	// above the largest single query, so the bucket drains, rejects, and
	// refills to serve the retries.
	spec.SourceFaults = mustPlan(t, "rate=128/256,seed=1")
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("rate limit must only delay, not break: %v", res)
	}
	if res.SourceFailures == 0 {
		t.Errorf("burst 256 vs demand 2048 recorded no rate-limit failures")
	}
}

func TestSourceFaultedRunDeterministic(t *testing.T) {
	run := func() *sim.Result {
		spec := naiveSpec(7)
		spec.NewPeer = naive.NewBatched(32)
		spec.SourceFaults = mustPlan(t, "fail=0.25,timeout=0.1,latency=0.5,outage=1..2.5,seed=11")
		res, err := des.New().Run(spec)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical source-faulted runs diverged:\n%v\n%v", a, b)
	}
	if !a.Correct || a.SourceFailures == 0 {
		t.Fatalf("determinism fixture degenerate: %v (failures=%d)", a, a.SourceFailures)
	}
}

// halver queries the first half of X, then — after that reply — the whole
// array. The overlap means a rejoin between the two replies exercises the
// partial-warm merge path: half the second query is served from persisted
// state and only the rest goes to the source.
type halver struct {
	ctx   sim.Context
	track *bitarray.Tracker
}

func newHalver(sim.PeerID) sim.Peer { return &halver{} }

func (p *halver) Init(ctx sim.Context) {
	p.ctx = ctx
	p.track = bitarray.NewTracker(ctx.L())
	p.ctx.Query(0, seq(0, ctx.L()/2))
}

func (p *halver) OnMessage(sim.PeerID, sim.Message) {}

func (p *halver) OnQueryReply(r sim.QueryReply) {
	for j, idx := range r.Indices {
		p.track.LearnFromSource(idx, r.Bits.Get(j))
	}
	if r.Tag == 0 {
		p.ctx.Query(1, seq(0, p.ctx.L()))
		return
	}
	out, err := p.track.Output()
	if err != nil {
		panic("halver: " + err.Error())
	}
	p.ctx.Output(out)
	p.ctx.Terminate()
}

func TestChurnRejoinResumesWarm(t *testing.T) {
	spec := &sim.Spec{
		Config:  sim.Config{N: 4, T: 1, L: 256, MsgBits: 64, Seed: 21},
		NewPeer: newHalver,
		Delays:  adversary.NewRandomUnit(21),
		// Actions: start(1), query#1(2), reply#1(3), query#2(4); the
		// crash lands on the reply#2 delivery, after 128 bits persisted.
		Faults: sim.Faults{Fates: []sim.Fate{{Peer: 0, CrashAfter: 4, Downtime: 5}}},
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("honest peers must be unaffected by churn: %v", res)
	}
	if res.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", res.Rejoins)
	}
	cp := res.PerPeer[0]
	if !cp.Rejoined || cp.Honest {
		t.Fatalf("churn peer stats = %+v, want Rejoined and not Honest", cp)
	}
	if !cp.Crashed {
		t.Errorf("churn peer never crashed")
	}
	if !cp.Terminated {
		t.Fatalf("rejoined churn peer must run to completion")
	}
	// Rejoin replays query#1 (128 bits, fully warm) and query#2 (256 bits,
	// half warm): 256 warm bits total, and only the cold half re-charged.
	if cp.WarmHitBits != 256 {
		t.Errorf("WarmHitBits = %d, want 256", cp.WarmHitBits)
	}
	if want := 128 + 256 + 0 + 128; cp.QueryBits != want {
		t.Errorf("QueryBits = %d, want %d (pre-crash 384 + cold half 128)", cp.QueryBits, want)
	}
	if input := spec.Config.ResolveInput(); cp.Output == nil || !cp.Output.Equal(input) {
		t.Errorf("rejoined peer output wrong")
	}
}

func TestChurnRejoinUnderSourceFaults(t *testing.T) {
	spec := &sim.Spec{
		Config:       sim.Config{N: 4, T: 1, L: 256, MsgBits: 64, Seed: 23},
		NewPeer:      newHalver,
		Delays:       adversary.NewRandomUnit(23),
		Faults:       sim.Faults{Fates: []sim.Fate{{Peer: 1, CrashAfter: 4, Downtime: 4}}},
		SourceFaults: mustPlan(t, "fail=0.2,seed=3"),
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("churn + flaky source: %v", res)
	}
	if res.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", res.Rejoins)
	}
	cp := res.PerPeer[1]
	if !cp.Terminated || cp.WarmHitBits == 0 {
		t.Errorf("churn peer terminated=%v warm=%d, want recovery with warm hits",
			cp.Terminated, cp.WarmHitBits)
	}
	if input := spec.Config.ResolveInput(); cp.Output == nil || !cp.Output.Equal(input) {
		t.Errorf("rejoined peer output wrong under flaky source")
	}
}

func TestChurnNeverRejoins(t *testing.T) {
	spec := &sim.Spec{
		Config:  sim.Config{N: 4, T: 1, L: 256, MsgBits: 64, Seed: 25},
		NewPeer: newHalver,
		Delays:  adversary.NewRandomUnit(25),
		Faults:  sim.Faults{Fates: []sim.Fate{{Peer: 2, CrashAfter: 2, Downtime: -1}}},
	}
	res, err := des.New().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Correct {
		t.Fatalf("a permanently crashed churn peer is just a crash fault: %v", res)
	}
	if res.Rejoins != 0 {
		t.Errorf("Rejoins = %d, want 0 for Downtime < 0", res.Rejoins)
	}
	cp := res.PerPeer[2]
	if !cp.Crashed || cp.Rejoined || cp.Terminated {
		t.Errorf("churn peer stats = %+v, want crashed and gone", cp)
	}
}

func TestChurnSpecValidation(t *testing.T) {
	base := func() *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: 4, T: 1, L: 16, MsgBits: 8, Seed: 1},
			NewPeer: newHalver,
			Delays:  adversary.NewRandomUnit(1),
		}
	}
	cases := []struct {
		name string
		mut  func(*sim.Spec)
	}{
		{"out of range", func(s *sim.Spec) {
			s.Faults.Fates = []sim.Fate{{Peer: 9, CrashAfter: 1, Downtime: 1}}
		}},
		{"negative crash point", func(s *sim.Spec) {
			s.Faults.Fates = []sim.Fate{{Peer: 0, CrashAfter: -1, Downtime: 1}}
		}},
		{"duplicate churn peer", func(s *sim.Spec) {
			s.Faults.Fates = []sim.Fate{
				{Peer: 0, CrashAfter: 1, Downtime: 1},
				{Peer: 0, CrashAfter: 2, Downtime: 1},
			}
		}},
		{"exceeds fault bound", func(s *sim.Spec) {
			s.Faults.Fates = []sim.Fate{
				{Peer: 0, CrashAfter: 1, Downtime: 1},
				{Peer: 1, CrashAfter: 1, Downtime: 1},
			}
		}},
		{"bad source plan", func(s *sim.Spec) {
			s.SourceFaults = &source.FaultPlan{FailRate: 1.5}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mut(spec)
			if _, err := des.New().Run(spec); err == nil {
				t.Fatalf("invalid spec accepted")
			}
		})
	}
}
