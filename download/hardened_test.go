package download_test

import (
	"strconv"
	"testing"

	"repro/download"
	"repro/internal/harden"
	"repro/internal/obs"
)

// byzMajorityOpts is the end-to-end scenario from docs/HARDENING.md: a
// Byzantine majority (β = 1/2 > the configured bound T/N) of consistent
// liars against twocycle. At seed 26 the forged segment reaches the
// frequency threshold at several honest peers while the true one misses
// it, so they silently adopt a wrong array — the failure mode the
// hardening layer exists for. Pinned by TestUnhardenedByzantineMajority.
func byzMajorityOpts() download.Options {
	return download.Options{
		Protocol: download.TwoCycle,
		N:        64, T: 15, L: 1024,
		Faulty: 32, Behavior: download.Liar,
		AllowExcessFaults: true,
		Seed:              26,
	}
}

// onRuntimes runs the scenario through run on des, and over sockets with
// a 3 s deadline per attempt, until run reports that the forged segment
// landed (some honest peer adopted it). On des it lands at once. Over
// sockets the hub relays the broadcasts in the order they arrive, and the
// forgery lands only when too few true copies of the segment come before
// the liars' — in half to nine tenths of socket runs on 2 vCPUs, fewer
// under load — so up to 20 runs are made. Every run must pass run's
// checks, landed or not.
func onRuntimes(t *testing.T, run func(t *testing.T, opts download.Options) (landed bool)) {
	t.Run("des", func(t *testing.T) {
		if !run(t, byzMajorityOpts()) {
			t.Fatal("the forged segment did not land; seed no longer exhibits the attack")
		}
	})
	t.Run("tcp", func(t *testing.T) {
		opts := byzMajorityOpts()
		opts.TCP, opts.Deadline = true, 3
		for range 20 {
			if run(t, opts) {
				return
			}
		}
		t.Fatal("the forged segment landed in none of 20 socket runs")
	})
}

// TestUnhardenedByzantineMajority pins the baseline: without the
// supervisor the run completes "successfully" — every honest peer
// terminates, and no error is returned — but some output a wrong array.
func TestUnhardenedByzantineMajority(t *testing.T) {
	onRuntimes(t, func(t *testing.T, opts download.Options) bool {
		rep, err := download.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for _, p := range rep.PerPeer {
			if !p.Honest {
				continue
			}
			if !p.Terminated {
				t.Fatalf("peer %d: honest peer did not terminate (attack should be silent)", p.ID)
			}
			if !p.OutputCorrect {
				wrong++
			}
		}
		if rep.Correct != (wrong == 0) {
			t.Fatalf("Correct = %v with %d wrong honest outputs", rep.Correct, wrong)
		}
		return wrong > 0
	})
}

// TestHardenedByzantineMajorityCorrected is the headline end-to-end
// guarantee: the same execution under RunHardened detects the forgery
// via the source audit, escalates twocycle → naive, and every honest
// peer outputs X exactly, with the cumulative Q bounded by L plus the
// audit budget of both attempts. A socket run the forgery missed is one
// clean, audited attempt, and is held to the same output and Q bound.
func TestHardenedByzantineMajorityCorrected(t *testing.T) {
	onRuntimes(t, func(t *testing.T, opts download.Options) bool {
		ladder := []download.Protocol{download.TwoCycle, download.Naive}
		rep, err := download.RunHardenedLadder(opts, ladder)
		if err != nil {
			t.Fatal(err)
		}
		h := rep.Hardening
		if h == nil {
			t.Fatal("no hardening report")
		}
		if !rep.Correct {
			t.Fatalf("hardened run not correct: %v", rep.Failures)
		}
		for _, p := range rep.PerPeer {
			if p.Honest && !p.OutputCorrect {
				t.Fatalf("peer %d: honest peer output wrong under hardening", p.ID)
			}
		}
		// Cumulative Q (protocol queries + audits, warm hits free) must
		// stay within the naive fallback's cost plus the audit budget: the
		// warm start guarantees escalation never pays twice for a
		// verified bit.
		bound := opts.L + len(h.Attempts)*harden.DefaultAuditBits
		if rep.Q > bound {
			t.Fatalf("Q = %d exceeds warm-start bound L + attempts*k = %d", rep.Q, bound)
		}
		if h.Attempts[0].Result.Correct {
			if h.Detected || len(h.Attempts) != 1 {
				t.Fatalf("a clean first attempt escalated: detected=%v attempts=%v", h.Detected, h.Escalations())
			}
			return false
		}
		if !h.Detected || !h.Corrected {
			t.Fatalf("detected=%v corrected=%v, want both", h.Detected, h.Corrected)
		}
		if esc := h.Escalations(); len(esc) != 2 || esc[0] != string(download.TwoCycle) || esc[1] != string(download.Naive) {
			t.Fatalf("escalations = %v, want [twocycle naive]", esc)
		}
		if len(h.Attempts[0].Violations) == 0 {
			t.Fatal("first attempt recorded no violations")
		}
		if rep.Q <= opts.L/2 {
			t.Fatalf("Q = %d implausibly low for a naive fallback on L=%d", rep.Q, opts.L)
		}
		return true
	})
}

// TestHardenedWarmStartNoRequery pins the warm-start guarantee at the
// obs layer: in the forced twocycle → naive escalation, the naive rung's
// per-peer query bits (series dr_sim_query_bits_total{protocol="naive"})
// must equal exactly L minus the bits that peer had already verified
// after the first attempt, and the cache must serve all the rest
// (dr_harden_warm_hit_bits_total) — zero already-verified indices are
// re-queried from the source.
func TestHardenedWarmStartNoRequery(t *testing.T) {
	opts := byzMajorityOpts()
	reg := obs.New()
	opts.Metrics = reg
	ladder := []download.Protocol{download.TwoCycle, download.Naive}
	rep, err := download.RunHardenedLadder(opts, ladder)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Hardening
	if len(h.Attempts) != 2 {
		t.Fatalf("got %d attempts, want 2", len(h.Attempts))
	}
	verified := h.Attempts[0].VerifiedBits
	snap := reg.Snapshot()
	for _, p := range rep.PerPeer {
		if !p.Honest {
			continue
		}
		peer := strconv.Itoa(int(p.ID))
		naiveQ, ok := snap.Series("dr_sim_query_bits_total",
			map[string]string{"protocol": "naive", "peer": peer})
		if !ok {
			t.Fatalf("peer %s: no naive-rung query series", peer)
		}
		warm, ok := snap.Series("dr_harden_warm_hit_bits_total",
			map[string]string{"rung": "naive", "peer": peer})
		if !ok {
			t.Fatalf("peer %s: no warm-hit series", peer)
		}
		if v := verified[p.ID]; naiveQ.Value != float64(opts.L-v) {
			t.Errorf("peer %s: naive rung queried %v source bits, want L-verified = %d (re-queried %v verified bits)",
				peer, naiveQ.Value, opts.L-v, naiveQ.Value-float64(opts.L-v))
		} else if warm.Value != float64(v) {
			t.Errorf("peer %s: warm cache served %v bits, want all %d verified bits", peer, warm.Value, v)
		}
	}
}

// TestHardenedRunAttemptsKeepOwnQueryBits: the Report's per-peer query bits
// are cumulative across attempts, while each attempt's Result keeps its
// own — the final one included, though the Report is built from it. The
// naive rung queries exactly the bits its peer had not verified, and the
// attempts' bits plus the audit bits sum to the Report's.
func TestHardenedRunAttemptsKeepOwnQueryBits(t *testing.T) {
	opts := byzMajorityOpts()
	ladder := []download.Protocol{download.TwoCycle, download.Naive}
	rep, err := download.RunHardenedLadder(opts, ladder)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Hardening
	if len(h.Attempts) != 2 {
		t.Fatalf("got %d attempts, want 2", len(h.Attempts))
	}
	final := h.Attempts[1].Result
	if &final.PerPeer[0] == &h.Result.PerPeer[0] {
		t.Fatal("the outcome's Result shares the last attempt's PerPeer")
	}
	var attemptBits, cumulative int
	for j := range rep.PerPeer {
		for _, att := range h.Attempts {
			attemptBits += att.Result.PerPeer[j].QueryBits
		}
		cumulative += rep.PerPeer[j].QueryBits
		if !rep.PerPeer[j].Honest {
			continue
		}
		own, want := final.PerPeer[j].QueryBits, opts.L-h.Attempts[0].VerifiedBits[j]
		if own != want {
			t.Errorf("peer %d: the naive attempt's Result says %d query bits, want its own L-verified = %d (the Report says %d)",
				j, own, want, rep.PerPeer[j].QueryBits)
		}
		if own >= rep.PerPeer[j].QueryBits {
			t.Errorf("peer %d: attempt bits %d not below the cumulative %d", j, own, rep.PerPeer[j].QueryBits)
		}
	}
	if attemptBits+h.AuditBits != cumulative {
		t.Errorf("attempts' query bits %d + audit bits %d != the Report's %d", attemptBits, h.AuditBits, cumulative)
	}
}

// TestHardenedReportSumsAttempts: a hardened Report's M, message bits,
// time and events are the sums of its attempts', in total and per peer,
// as its Q is, while each attempt keeps its own.
func TestHardenedReportSumsAttempts(t *testing.T) {
	rep, err := download.RunHardened(byzMajorityOpts())
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Hardening
	final := h.Attempts[len(h.Attempts)-1].Result
	if len(h.Attempts) < 2 || final.Msgs >= rep.Msgs {
		t.Fatalf("want an escalated run whose earlier rungs sent messages: %d attempts, final M %d, Report M %d",
			len(h.Attempts), final.Msgs, rep.Msgs)
	}
	var msgs, msgBits, events int
	var time float64
	perPeer := make([][2]int, len(rep.PerPeer))
	for _, a := range h.Attempts {
		msgs += a.Result.Msgs
		msgBits += a.Result.MsgBits
		events += a.Result.Events
		time += a.Result.Time
		for i, ps := range a.Result.PerPeer {
			perPeer[i][0] += ps.MsgsSent
			perPeer[i][1] += ps.MsgBitsSent
		}
	}
	if rep.Msgs != msgs || rep.MsgBits != msgBits || rep.Events != events || rep.Time != time {
		t.Errorf("Report (M %d, bits %d, events %d, time %v) != attempts' sums (%d, %d, %d, %v)",
			rep.Msgs, rep.MsgBits, rep.Events, rep.Time, msgs, msgBits, events, time)
	}
	for i, ps := range rep.PerPeer {
		if got := [2]int{ps.MsgsSent, ps.MsgBitsSent}; got != perPeer[i] {
			t.Errorf("peer %d: Report's (messages, bits) %v != attempts' sums %v", i, got, perPeer[i])
		}
	}
	for i, ps := range final.PerPeer {
		if ps.Honest && ps.MsgsSent != 0 {
			t.Errorf("the naive attempt's own Result says honest peer %d sent %d messages", i, ps.MsgsSent)
		}
	}
}

// TestHardenedCleanRunNoEscalation: inside its assumed regime the first
// rung passes the audit and the ladder never descends.
func TestHardenedCleanRunNoEscalation(t *testing.T) {
	rep, err := download.RunHardened(download.Options{
		Protocol: download.TwoCycle,
		N:        16, T: 3, L: 256,
		Faulty: 3, Behavior: download.Liar,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Hardening
	if h.Detected || h.Corrected {
		t.Fatalf("detected=%v corrected=%v on an in-regime run", h.Detected, h.Corrected)
	}
	if len(h.Attempts) != 1 {
		t.Fatalf("got %d attempts, want 1", len(h.Attempts))
	}
	if !rep.Correct {
		t.Fatalf("in-regime hardened run failed: %v", rep.Failures)
	}
	if h.AuditBits == 0 {
		t.Fatal("clean attempt must still be audited")
	}
}

// TestHardenedOptionErrors covers facade-level misconfiguration.
func TestHardenedOptionErrors(t *testing.T) {
	base := download.Options{Protocol: download.TwoCycle, N: 8, T: 3, L: 64}
	tcp := base
	tcp.TCP = true
	if rep, err := download.RunHardened(tcp); err != nil || !rep.Correct {
		t.Errorf("RunHardened over TCP: err = %v, want a served, correct run", err)
	}
	if _, err := download.RunHardenedLadder(base, nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := download.RunHardenedLadder(base, []download.Protocol{download.Naive, download.TwoCycle}); err == nil {
		t.Error("ladder not starting at opts.Protocol accepted")
	}
}

// TestDefaultLadders pins the ladder shapes: each ends at naive (the
// unavoidable β ≥ 1/2 fallback) and starts at the requested protocol.
func TestDefaultLadders(t *testing.T) {
	for _, info := range download.Protocols() {
		ladder := download.DefaultLadder(info.Protocol)
		if len(ladder) == 0 || ladder[0] != info.Protocol {
			t.Errorf("%s: ladder %v does not start at the protocol", info.Protocol, ladder)
		}
		if ladder[len(ladder)-1] != download.Naive {
			t.Errorf("%s: ladder %v does not end at naive", info.Protocol, ladder)
		}
	}
}
