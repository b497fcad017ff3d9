// The dst bridge: a failing storm is re-recorded on the deterministic
// engine so the failure becomes a minimized, committed .dsr artifact
// instead of a flaky socket log. The bridge carries every plane the des
// engine models — crash-from-start peers, churn, the source fault plan
// (in step units), the mirror fleet — and drops the socket-only network
// plane (drops, flaps, partitions, listener outages), which the replay's
// Note records.
package storm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dst"
	"repro/internal/netrt"
)

// marshalFinding renders a finding artifact as indented JSON.
func marshalFinding(f *Finding) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// PinnedStormSeed is the master seed of the committed acceptance storm
// (see TestStormReplayPinned): chosen so the naive composition draws
// every plane at once — rejoining churn, a source outage with transient
// failures, a Byzantine-majority mirror fleet, network chaos, and a
// listener outage. The .dsr recorded from its des bridge is pinned
// byte-for-byte in internal/dst/testdata/replays.
const (
	PinnedStormSeed    int64 = 3
	pinnedScheduleSeed int64 = 42
	PinnedReplayFile         = "naive-storm-composed.dsr"
)

// DesReplay lowers a storm spec onto the deterministic engine as an
// unrecorded dst replay. It fails for a protocol outside the dst registry,
// which holds every protocol a storm runs.
func DesReplay(spec Spec) (*dst.Replay, error) {
	if _, err := dst.LookupProtocol(spec.Protocol); err != nil {
		return nil, err
	}
	r := &dst.Replay{
		Version:  dst.Version,
		Protocol: spec.Protocol,
		N:        spec.N, T: spec.T, L: spec.L, MsgBits: spec.MsgBits,
		Seed:       spec.Seed,
		SourcePlan: spec.SourceFaultsDes,
		MirrorPlan: spec.Mirrors,
	}
	for _, p := range spec.Absent {
		r.Fault = dst.FaultCrash
		r.Faulty = append(r.Faulty, p)
		r.CrashPoints = append(r.CrashPoints, dst.CrashPoint{Peer: p, Point: 0})
	}
	for _, c := range spec.Churn {
		r.Churn = append(r.Churn, dst.ChurnPoint{
			Peer: c.Peer, Point: c.CrashAfter, Rejoin: c.Downtime >= 0,
		})
	}
	return r, nil
}

// Finding is one failing storm's artifact bundle.
type Finding struct {
	Spec       Spec        `json:"spec"`
	Violations []Violation `json:"violations"`
	// ReplayFile is the path of the des bridge's .dsr.
	ReplayFile string `json:"replay_file,omitempty"`
	// DesReproduced reports whether the des re-execution of the bridged
	// composition also violated (then the .dsr is a shrunk failure
	// reproduction); false pins the schedule as ExpectCorrect evidence
	// that the failure is socket-only.
	DesReproduced bool `json:"des_reproduced"`
	// Pending is the table of a run that timed out (*netrt.TimeoutError):
	// each unterminated peer, with the hub's outbox depth and ack base
	// toward it. StacksFile holds the goroutine profile taken as the
	// deadline fired.
	Pending    []netrt.PendingPeer `json:"pending,omitempty"`
	StacksFile string              `json:"stacks_file,omitempty"`
}

// RecordFinding writes a failing storm into dir: the spec + violations
// as JSON, and the bridged replay as a .dsr, shrunk to minimal form when the des engine reproduces a
// violation. When runErr, the run's error, is a *netrt.TimeoutError, the
// JSON keeps its pending table and its goroutine profile goes beside it as
// .stacks.txt. Returns the finding with artifact paths filled in.
func RecordFinding(spec Spec, violations []Violation, dir string, shrink bool, runErr error) (*Finding, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &Finding{Spec: spec, Violations: violations}
	base := fmt.Sprintf("storm-%s-s%d", spec.Protocol, spec.StormSeed)
	if terr := (*netrt.TimeoutError)(nil); errors.As(runErr, &terr) {
		f.Pending = terr.Pending
		f.StacksFile = filepath.Join(dir, base+".stacks.txt")
		if err := os.WriteFile(f.StacksFile, terr.Stacks, 0o644); err != nil {
			return nil, err
		}
	}

	r, err := DesReplay(spec)
	if err != nil {
		return nil, err
	}
	rec, out, err := dst.Record(r, spec.StormSeed)
	switch {
	case err != nil:
		return nil, fmt.Errorf("storm: record des bridge: %w", err)
	case out.Violation():
		f.DesReproduced = true
		rec.Expect = dst.ExpectViolation
		if shrink {
			shrunk, _, serr := dst.Shrink(rec, dst.ShrinkOptions{})
			if serr == nil {
				rec = shrunk
			}
		}
		rec.Note = fmt.Sprintf("Shrunk des reproduction of storm seed %d on %s "+
			"(socket-only network plane dropped): %v", spec.StormSeed, spec.Protocol, violations)
	default:
		rec.Expect = dst.ExpectCorrect
		rec.Note = fmt.Sprintf("Storm seed %d on %s violated on the socket runtime (%v) "+
			"but its des bridge passes: the failure is socket-only (network plane, "+
			"resume handshake, or checkpoint store). Pinned as a correct-schedule control.",
			spec.StormSeed, spec.Protocol, violations)
	}
	f.ReplayFile = filepath.Join(dir, base+".dsr")
	if err := rec.Save(f.ReplayFile); err != nil {
		return nil, err
	}

	data, err := marshalFinding(f)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return f, nil
}

// PinnedReplay rebuilds the committed acceptance storm's replay from
// scratch: the canonical naive spec from PinnedStormSeed, bridged to des
// and recorded under the pinned schedule seed. Regeneration and the
// byte-identity test both call this, so the committed .dsr stays a pure
// function of (Generate, the des engine, the pinned seeds).
func PinnedReplay() (*dst.Replay, error) {
	spec := Generate(pinnedProtocol, pinnedN, pinnedT, pinnedL, pinnedB, PinnedStormSeed)
	r, err := DesReplay(spec)
	if err != nil {
		return nil, err
	}
	rec, out, err := dst.Record(r, pinnedScheduleSeed)
	if err != nil {
		return nil, err
	}
	if !out.Result.Correct {
		return nil, fmt.Errorf("storm: pinned storm composition no longer passes on des: %v", out.Result.Failures)
	}
	rec.Expect = dst.ExpectCorrect
	rec.Note = "Acceptance storm for the crash-recovery tier: the seeded composed-fault " +
		"storm (source outage with transient failures, Byzantine-majority mirror fleet, " +
		"crash-rejoin churn) bridged onto the deterministic engine and pinned " +
		"byte-for-byte. The same composition runs over real sockets with the network " +
		"chaos plane added in TestStormPinnedSeedOverTCP and in the drstorm CI gate."
	return rec, nil
}

// The pinned storm's model parameters (naive at the conformance grid's
// small shape, t at naive's n/2 fault bound).
const (
	pinnedN = 6
	pinnedT = 3
	pinnedL = 256
	pinnedB = 64
)

const pinnedProtocol = "naive"
