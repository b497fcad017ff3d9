package netrt

import (
	"repro/internal/bitarray"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/source"
)

// Config is the older spelling of one socket run, kept for the benchmark
// harness and cmd/drload, which call Run and StartHub with it. A field is
// its namesake in sim.Spec (the model's in sim.Config) or in Net, except
// three that lower (lower): Absent to crash fates at action 0, ahead of
// Churn's fates, and Timeline to the spec's Observer. Shards and
// ShardQueue are ignored: the hub has one listener, and a connection's one
// queue is its peer's outbox. The run's timeout is the 30 s default.
//
// Deprecated: build a *sim.Spec and a Net and call Runner.
type Config struct {
	N, T, L, MsgBits int
	Seed             int64
	NewPeer          func(sim.PeerID) sim.Peer
	Absent           []sim.PeerID
	Churn            []sim.ChurnPeer
	CheckpointDir    string
	Faults           *FaultPlan
	SourceFaults     *source.FaultPlan
	SourcePolicy     source.Policy
	Shards           int
	ShardQueue       int
	Resilience       Resilience
	Input            *bitarray.Array
	Metrics          *obs.Registry
	Timeline         *obs.Timeline
	Label            string
}

// lower is the run cfg describes: the spec and the Net that Runner takes.
func (cfg *Config) lower() (*sim.Spec, Net) {
	spec := &sim.Spec{
		Config: sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: cfg.MsgBits,
			Seed: cfg.Seed, Input: cfg.Input},
		NewPeer:      cfg.NewPeer,
		Faults:       sim.Faults{Fates: append(sim.Crashes(cfg.Absent, 0), cfg.Churn...)},
		SourceFaults: cfg.SourceFaults,
		SourcePolicy: cfg.SourcePolicy,
		Observer:     sim.TimelineObserver(cfg.Timeline),
		Metrics:      cfg.Metrics,
		Label:        cfg.Label,
	}
	return spec, Net{Faults: cfg.Faults, Resilience: cfg.Resilience, CheckpointDir: cfg.CheckpointDir}
}

// Run executes the run cfg describes.
//
// Deprecated: use Runner.
func Run(cfg Config) (*sim.Result, error) {
	spec, net := cfg.lower()
	return run(spec, net)
}
