package dst

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// base returns a small crash-free replay skeleton for protocol name.
func base(name string, n, t, l int, seed int64) *Replay {
	return &Replay{
		Version: Version, Protocol: name,
		N: n, T: t, L: l, MsgBits: 64, Seed: seed,
	}
}

// TestReplayByteDeterminism is the replay-engine guarantee the tentpole
// demands: record a run under a random schedule, then re-execute the
// recorded replay twice and require identical sim.Result metrics
// (output, Q, M, T), identical choice lists, and an identical
// event-sequence hash.
func TestReplayByteDeterminism(t *testing.T) {
	for _, proto := range []string{"naive", "crash1", "crashk", "committee"} {
		for seed := int64(1); seed <= 5; seed++ {
			rec, recOut, err := Record(base(proto, 4, 1, 32, seed), seed*101)
			if err != nil {
				t.Fatalf("%s seed %d: record: %v", proto, seed, err)
			}
			first, err := Run(rec)
			if err != nil {
				t.Fatalf("%s seed %d: replay: %v", proto, seed, err)
			}
			second, err := Run(rec)
			if err != nil {
				t.Fatalf("%s seed %d: replay 2: %v", proto, seed, err)
			}
			for _, out := range []*Outcome{first, second} {
				if out.EventHash != recOut.EventHash {
					t.Fatalf("%s seed %d: replay hash %s, recorded %s",
						proto, seed, HashString(out.EventHash), HashString(recOut.EventHash))
				}
				if !reflect.DeepEqual(out.Choices, recOut.Choices) {
					t.Fatalf("%s seed %d: replay choices %v, recorded %v",
						proto, seed, out.Choices, recOut.Choices)
				}
				a, b := out.Result, recOut.Result
				if a.Correct != b.Correct || a.Q != b.Q ||
					a.MsgBits != b.MsgBits || a.Msgs != b.Msgs ||
					a.Time != b.Time || a.Events != b.Events {
					t.Fatalf("%s seed %d: replay result %+v != recorded %+v", proto, seed, a, b)
				}
				for i := range a.PerPeer {
					pa, pb := a.PerPeer[i], b.PerPeer[i]
					if pa.QueryBits != pb.QueryBits || pa.MsgsSent != pb.MsgsSent ||
						pa.MsgBitsSent != pb.MsgBitsSent || pa.TermTime != pb.TermTime {
						t.Fatalf("%s seed %d peer %d: %+v != %+v", proto, seed, i, pa, pb)
					}
					if (pa.Output == nil) != (pb.Output == nil) ||
						(pa.Output != nil && !pa.Output.Equal(pb.Output)) {
						t.Fatalf("%s seed %d peer %d: outputs differ", proto, seed, i)
					}
				}
			}
			// Re-marshal is byte-identical: the file format is canonical.
			b1, err := rec.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(b1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := parsed.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Fatalf("%s seed %d: marshal round trip not byte-identical:\n%s\n---\n%s",
					proto, seed, b1, b2)
			}
			if err := rec.Validate(); err != nil {
				t.Fatalf("%s seed %d: recorded replay invalid: %v", proto, seed, err)
			}
			// And Verify accepts its own recording (expectation + hash).
			rec.Expect = ExpectCorrect
			if !recOut.Result.Correct {
				rec.Expect = ExpectViolation
			}
			if _, err := Verify(rec); err != nil {
				t.Fatalf("%s seed %d: verify own recording: %v", proto, seed, err)
			}
		}
	}
}

// TestFIFODefault: an empty choice list replays the pure FIFO schedule,
// and truncating a recorded list still executes (FIFO past the end).
func TestFIFODefault(t *testing.T) {
	r := base("crash1", 4, 1, 32, 3)
	fifo, err := Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if !fifo.Result.Correct {
		t.Fatalf("FIFO crash1 run failed: %v", fifo.Result)
	}
	if len(fifo.Choices) != 0 {
		// Every decision under FIFO is 0 and fully determined, but the
		// engine still records them; replaying the empty list must give
		// the same execution.
		empty := r.Clone()
		empty.Choices = nil
		again, err := Run(empty)
		if err != nil {
			t.Fatal(err)
		}
		if again.EventHash != fifo.EventHash {
			t.Fatalf("empty-choice replay diverged from FIFO run")
		}
	}

	rec, _, err := Record(r, 99)
	if err != nil {
		t.Fatal(err)
	}
	trunc := rec.Clone()
	trunc.Choices = trunc.Choices[:len(trunc.Choices)/2]
	if _, err := Run(trunc); err != nil {
		t.Fatalf("truncated replay: %v", err)
	}
}

// TestByzantineRecordReplay: strategy coins are part of the recorded
// state — a Byzantine run replays exactly, including forged traffic.
func TestByzantineRecordReplay(t *testing.T) {
	r := base("committee-weak", 4, 1, 16, 11)
	r.Fault = FaultByzantine
	r.Faulty = []int{0}
	r.Strategy = &Strategy{Seed: 42, Ops: []string{"lie", "equivocate", "replay-stale"}}
	rec, recOut, err := Record(r, 7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.EventHash != recOut.EventHash {
		t.Fatalf("byzantine replay hash %s != recorded %s",
			HashString(out.EventHash), HashString(recOut.EventHash))
	}
}

// TestObserverEmitsTrace: RunObserved produces drtrace-compatible events
// without perturbing the execution.
func TestObserverEmitsTrace(t *testing.T) {
	rec, plain, err := Record(base("crash1", 4, 1, 32, 5), 123)
	if err != nil {
		t.Fatal(err)
	}
	var mem trace.Memory
	observed, err := RunObserved(rec, &mem)
	if err != nil {
		t.Fatal(err)
	}
	if observed.EventHash != plain.EventHash {
		t.Fatalf("observer perturbed execution: %s != %s",
			HashString(observed.EventHash), HashString(plain.EventHash))
	}
	if len(mem.Events) == 0 {
		t.Fatal("no events observed")
	}
	sum := trace.Analyze(mem.Events)
	for _, kind := range []string{"start", "send", "deliver", "query", "terminate"} {
		if sum.ByKind[kind] == 0 {
			t.Fatalf("no %q events in trace (kinds: %v)", kind, sum.ByKind)
		}
	}
}

// TestObservabilityDoesNotPerturb: an observer, a timeline and a metrics
// registry watch a replay without changing it — same event hash, choices
// and Result as the bare run. All three protocols mark phases; des's
// context delivers those marks (to the caller's observer, and so to the
// timeline viewing it) and the event hash must not fold them, or every
// pinned hash would move.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	h := eventHash{sum: fnvOffset}
	h.OnEvent(sim.ObservedEvent{Kind: "phase", Peer: 1, Other: -1, Name: "download"})
	if h.sum != fnvOffset {
		t.Fatal("the event hash folds phase marks")
	}
	for _, proto := range []string{"crash1", "crashk", "committee"} {
		rec, bare, err := Record(base(proto, 4, 1, 32, 5), 123)
		if err != nil {
			t.Fatalf("%s: record: %v", proto, err)
		}
		spec, err := rec.spec()
		if err != nil {
			t.Fatal(err)
		}
		var mem trace.Memory
		tl := obs.NewTimeline()
		spec.Observer, spec.Metrics, spec.Label = sim.Tee(&mem, sim.TimelineObserver(tl)), obs.New(), proto
		watched, err := run(spec, replayChooser(rec.Choices))
		if err != nil {
			t.Fatal(err)
		}
		if watched.EventHash != bare.EventHash {
			t.Errorf("%s: event hash %s watched, %s bare", proto,
				HashString(watched.EventHash), HashString(bare.EventHash))
		}
		if !reflect.DeepEqual(watched.Choices, bare.Choices) {
			t.Errorf("%s: choices differ when watched", proto)
		}
		if !reflect.DeepEqual(watched.Result, bare.Result) {
			t.Errorf("%s: result %v watched, %v bare", proto, watched.Result, bare.Result)
		}
		phases := 0
		for _, ev := range mem.Events {
			if ev.Kind == "phase" {
				phases++
			}
		}
		marks := 0
		for _, ev := range tl.Events() {
			if ev.Kind == "phase" {
				marks++
			}
		}
		if phases == 0 || marks == 0 {
			t.Errorf("%s: %d phase events observed, %d on the timeline: the marks this test is about never flowed",
				proto, phases, marks)
		}
	}
}

// TestStepCapIsViolation: Config.MaxEvents is the choice runs' step cap,
// and exhausting it is reported, not looped on.
func TestStepCapIsViolation(t *testing.T) {
	spec, err := base("naive", 4, 1, 32, 2).spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Config.MaxEvents = 5
	out, err := run(spec, fifoChooser)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.EventCapHit || out.Steps != 5 || !out.Violation() {
		t.Fatalf("cap 5: EventCapHit=%v steps=%d violation=%v", out.Result.EventCapHit, out.Steps, out.Violation())
	}
}

// TestPanicIsViolation: a panicking peer is captured as an incorrect
// outcome, not a crashed test process.
func TestPanicIsViolation(t *testing.T) {
	r := base("crash1", 4, 1, 32, 1)
	spec, err := r.spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.NewPeer = func(id sim.PeerID) sim.Peer { return panicPeer{} }
	out, err := run(spec, fifoChooser)
	if err != nil {
		t.Fatal(err)
	}
	if out.PanicValue == "" {
		t.Fatal("panic not captured")
	}
	if !out.Violation() {
		t.Fatal("panic outcome not a violation")
	}
	if f := out.Result.Failures; len(f) == 0 || !strings.HasPrefix(f[0], "peer panic: deliberate") {
		t.Fatalf("panic not the first failure listed: %v", f)
	}
	// The run stopped at the panicking delivery; it did not drain.
	if out.Steps != 1 || out.Result.Deadlocked {
		t.Fatalf("steps=%d deadlocked=%v after a panic in the first Init", out.Steps, out.Result.Deadlocked)
	}
}

type panicPeer struct{}

func (panicPeer) Init(sim.Context)                  { panic("deliberate test panic") }
func (panicPeer) OnMessage(sim.PeerID, sim.Message) {}
func (panicPeer) OnQueryReply(sim.QueryReply)       {}
