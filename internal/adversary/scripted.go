package adversary

import "repro/internal/sim"

// Scripted is a delay policy driven by an explicit byte script: each
// delay decision consumes one byte b and yields 0.01 + b/64 time units
// (wrapping around the script). Two uses:
//
//   - Schedule fuzzing: feeding go's coverage-guided fuzzer the script
//     turns it into a systematic explorer of asynchronous schedules —
//     each new byte pattern is a new interleaving of deliveries, and the
//     fuzzer hunts for schedules that reach new protocol states (see
//     FuzzCrashKSchedules in package des).
//   - Reproducing a specific pathological schedule found elsewhere.
//
// An empty script behaves as Fixed(1). Its script position belongs to one
// goroutine, as with every sim.DelayPolicy.
type Scripted struct {
	script []byte
	pos    int
}

var _ sim.DelayPolicy = (*Scripted)(nil)

// NewScripted wraps the script bytes (not copied).
func NewScripted(script []byte) *Scripted { return &Scripted{script: script} }

func (s *Scripted) next() float64 {
	if len(s.script) == 0 {
		return 1
	}
	b := s.script[s.pos%len(s.script)]
	s.pos++
	return 0.01 + float64(b)/64.0
}

// MessageDelay implements sim.DelayPolicy.
func (s *Scripted) MessageDelay(_, _ sim.PeerID, _ float64, _ int) float64 { return s.next() }

// QueryDelay implements sim.DelayPolicy.
func (s *Scripted) QueryDelay(sim.PeerID, float64) float64 { return s.next() }

// StartDelay implements sim.DelayPolicy.
func (s *Scripted) StartDelay(sim.PeerID) float64 { return s.next() }
