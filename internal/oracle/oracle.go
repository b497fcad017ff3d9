// Package oracle implements Section 4 of the paper: using Download
// protocols to cut the query cost of the Oracle Data Collection (ODC)
// step of blockchain oracles (Chainlink OCR / DORA-style systems).
//
// The setting: an off-chain network of n oracle nodes (up to t Byzantine)
// must report an array of m values (e.g., asset prices) drawn from
// n_s = 2·f_s+1 external data sources, of which up to f_s may be
// Byzantine. Honest sources report values inside a small honest spread;
// Byzantine sources report arbitrary outliers. The Oracle Data Delivery
// (ODD) property requires every published value to lie within the honest
// range [min honest, max honest] per cell.
//
// Baseline ODC (what deployed systems do): every node queries every cell
// of every selected source itself — n_s·m cell reads per node — then takes
// the per-cell median, which lands in the honest range because a majority
// of sources is honest.
//
// Download-based ODC (Theorem 4.2): for each source, the network runs one
// Download protocol execution with that source's (bit-packed) array as
// the external data, so every honest node learns every honest source's
// array exactly while paying only Õ(m/n)-ish queries per source; the
// per-cell median then gives the same ODD guarantee with the per-node
// query cost reduced by roughly a factor n.
//
// Byzantine sources are modeled as consistent liars (a fixed forged
// array). Equivocating or time-varying sources are the dynamic-data open
// problem the paper leaves for future work; see DESIGN.md.
package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/sim"
)

// CellBits is the width of one oracle value when bit-packed for Download.
const CellBits = 64

// Config parameterizes one oracle scenario.
type Config struct {
	// Nodes is the oracle-network size n.
	Nodes int
	// NodeFaults is the Byzantine bound t for the network.
	NodeFaults int
	// SourceFaults is f_s; 2·f_s+1 sources are used.
	SourceFaults int
	// Cells is m, the number of values per source.
	Cells int
	// Seed drives feed generation and the simulations.
	Seed int64
	// Spread is the honest sources' relative jitter (default 0.001).
	Spread float64
	// Agg selects the aggregation rule (default AggMedian).
	Agg Aggregator
	// SourceLies selects how Byzantine sources misreport (default
	// SourceOutlier).
	SourceLies SourceBehavior
}

// NumSources returns n_s = 2·f_s+1.
func (c *Config) NumSources() int { return 2*c.SourceFaults + 1 }

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("oracle: need at least 2 nodes, have %d", c.Nodes)
	case c.NodeFaults < 0 || c.NodeFaults >= c.Nodes:
		return fmt.Errorf("oracle: node fault bound %d out of range", c.NodeFaults)
	case c.SourceFaults < 0:
		return errors.New("oracle: negative source fault bound")
	case c.Cells < 1:
		return errors.New("oracle: need at least one cell")
	}
	return nil
}

// Feeds is a generated scenario: per-source value arrays plus the honest
// range per cell.
type Feeds struct {
	// Values[s][j] is source s's reported value for cell j. Sources
	// [0, SourceFaults) are Byzantine, the rest honest (the adversary
	// picks which; the indices are arbitrary labels).
	Values [][]int64
	// HonestMin and HonestMax bound the honest reports per cell.
	HonestMin, HonestMax []int64
	// ByzantineSources lists the forged sources.
	ByzantineSources []int
}

// GenerateFeeds synthesizes price-feed-like data: a random-walk true
// value per cell, honest sources reporting within Spread of it, Byzantine
// sources reporting huge outliers.
func GenerateFeeds(cfg *Config) (*Feeds, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spread := cfg.Spread
	if spread <= 0 {
		spread = 0.001
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0facade5))
	ns := cfg.NumSources()
	f := &Feeds{
		Values:    make([][]int64, ns),
		HonestMin: make([]int64, cfg.Cells),
		HonestMax: make([]int64, cfg.Cells),
	}
	truth := make([]float64, cfg.Cells)
	price := 100_000.0 // cents
	for j := range truth {
		price *= 1 + (rng.Float64()-0.5)*0.02
		truth[j] = price
	}
	for s := 0; s < ns; s++ {
		f.Values[s] = make([]int64, cfg.Cells)
		byz := s < cfg.SourceFaults
		if byz {
			f.ByzantineSources = append(f.ByzantineSources, s)
		}
		stuck := int64(truth[0] * 0.9)
		for j := range f.Values[s] {
			if byz {
				switch cfg.SourceLies {
				case SourceOffset:
					// Honest-looking but shifted by 20 spreads.
					f.Values[s][j] = int64(truth[j] * (1 + 20*spread))
				case SourceStuck:
					f.Values[s][j] = stuck
				default: // SourceOutlier
					f.Values[s][j] = int64((rng.Float64() - 0.5) * 1e12)
				}
			} else {
				f.Values[s][j] = int64(truth[j] * (1 + (rng.Float64()-0.5)*2*spread))
			}
		}
	}
	for j := 0; j < cfg.Cells; j++ {
		first := true
		for s := cfg.SourceFaults; s < ns; s++ {
			v := f.Values[s][j]
			if first || v < f.HonestMin[j] {
				f.HonestMin[j] = v
			}
			if first || v > f.HonestMax[j] {
				f.HonestMax[j] = v
			}
			first = false
		}
	}
	return f, nil
}

// Pack encodes a value array as a bit array of CellBits·len(vals) bits,
// little-endian per cell — the "binary input extends to numbers" remark
// of the paper.
func Pack(vals []int64) *bitarray.Array {
	a := bitarray.New(len(vals) * CellBits)
	for j, v := range vals {
		u := uint64(v)
		for b := 0; b < CellBits; b++ {
			if u&(1<<uint(b)) != 0 {
				a.Set(j*CellBits+b, true)
			}
		}
	}
	return a
}

// Unpack decodes a bit array produced by Pack.
func Unpack(a *bitarray.Array) []int64 {
	m := a.Len() / CellBits
	out := make([]int64, m)
	for j := 0; j < m; j++ {
		var u uint64
		for b := 0; b < CellBits; b++ {
			if a.Get(j*CellBits + b) {
				u |= 1 << uint(b)
			}
		}
		out[j] = int64(u)
	}
	return out
}

// Median returns the median of vals (lower median for even counts).
func Median(vals []int64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// Result summarizes one ODC run.
type Result struct {
	// PerNodeQueryBits is the maximum source bits queried by any honest
	// node across all sources.
	PerNodeQueryBits int
	// TotalQueryBits sums query bits over all honest nodes and sources.
	TotalQueryBits int
	// Published[j] is the final value for cell j (from the first honest
	// node; AllAgree reports whether every honest node derived the same).
	Published []int64
	// PerNode holds each honest node's own aggregate (what it would
	// submit on-chain).
	PerNode map[sim.PeerID][]int64
	// AllAgree reports whether all honest nodes computed identical
	// medians.
	AllAgree bool
	// ODDHolds reports the Oracle Data Delivery property: every
	// published value of every honest node lies in the honest range.
	ODDHolds bool
	// DownloadFailures counts per-source Download executions that were
	// not fully correct (0 for the baseline).
	DownloadFailures int
}

// RunBaseline executes the classical ODC process: every node reads every
// cell from every source directly.
func RunBaseline(cfg *Config, feeds *Feeds) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := cfg.NumSources()
	perNode := ns * cfg.Cells * CellBits
	honest := cfg.Nodes - cfg.NodeFaults
	medians := medianPerCell(cfg, feeds.Values)
	res := &Result{
		PerNodeQueryBits: perNode,
		TotalQueryBits:   perNode * honest,
		Published:        medians,
		AllAgree:         true, // every node reads identical data
	}
	res.ODDHolds = inHonestRange(feeds, medians)
	return res, nil
}

// DownloadRunner executes one Download of a packed source array over the
// oracle network and returns the per-honest-node outputs plus the result.
// It abstracts the protocol choice so experiments can compare them.
type DownloadRunner func(input *bitarray.Array, seed int64) (*sim.Result, error)

// NewRunner builds a DownloadRunner over the des runtime for the given
// protocol factory and faulty peers' fates.
func NewRunner(cfg *Config, newPeer func(sim.PeerID) sim.Peer, fates []sim.Fate, delays sim.DelayPolicy) DownloadRunner {
	return func(input *bitarray.Array, seed int64) (*sim.Result, error) {
		spec := &sim.Spec{
			Config: sim.Config{
				N: cfg.Nodes, T: cfg.NodeFaults, L: input.Len(),
				MsgBits: max(64, input.Len()/cfg.Nodes),
				Seed:    seed, Input: input,
			},
			NewPeer: newPeer,
			Delays:  delays,
			Faults:  sim.Faults{Fates: fates},
		}
		return des.New().Run(spec)
	}
}

// RunDownload executes the Download-based ODC process: one Download per
// source, then per-node medians.
func RunDownload(cfg *Config, feeds *Feeds, run DownloadRunner) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := cfg.NumSources()
	// learned[node][s] = node's view of source s's array.
	type nodeView struct {
		vals [][]int64
		q    int
	}
	views := make(map[sim.PeerID]*nodeView)
	res := &Result{}
	for s := 0; s < ns; s++ {
		input := Pack(feeds.Values[s])
		dres, err := run(input, cfg.Seed+int64(s)*7907)
		if err != nil {
			return nil, fmt.Errorf("oracle: download of source %d: %w", s, err)
		}
		if !dres.Correct {
			res.DownloadFailures++
		}
		for i := range dres.PerPeer {
			ps := &dres.PerPeer[i]
			if !ps.Honest {
				continue
			}
			v := views[ps.ID]
			if v == nil {
				v = &nodeView{vals: make([][]int64, ns)}
				views[ps.ID] = v
			}
			v.q += ps.QueryBits
			if ps.Output != nil && ps.Output.Len() == input.Len() {
				v.vals[s] = Unpack(ps.Output)
			} else {
				// Failed download: fall back to direct reads for this
				// source so the pipeline still publishes (costed).
				v.vals[s] = append([]int64(nil), feeds.Values[s]...)
				v.q += cfg.Cells * CellBits
			}
		}
	}
	// Per-node medians.
	var nodeIDs []sim.PeerID
	for id := range views {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
	res.ODDHolds = true
	res.AllAgree = true
	res.PerNode = make(map[sim.PeerID][]int64, len(nodeIDs))
	for _, id := range nodeIDs {
		v := views[id]
		medians := medianPerCell(cfg, v.vals)
		res.PerNode[id] = medians
		if res.Published == nil {
			res.Published = medians
		} else if !equalVals(res.Published, medians) {
			res.AllAgree = false
		}
		if !inHonestRange(feeds, medians) {
			res.ODDHolds = false
		}
		if v.q > res.PerNodeQueryBits {
			res.PerNodeQueryBits = v.q
		}
		res.TotalQueryBits += v.q
	}
	return res, nil
}

func medianPerCell(cfg *Config, perSource [][]int64) []int64 {
	out := make([]int64, cfg.Cells)
	col := make([]int64, 0, len(perSource))
	for j := 0; j < cfg.Cells; j++ {
		col = col[:0]
		for _, src := range perSource {
			col = append(col, src[j])
		}
		out[j] = Aggregate(cfg.Agg, col, cfg.SourceFaults)
	}
	return out
}

func inHonestRange(feeds *Feeds, vals []int64) bool {
	for j, v := range vals {
		if v < feeds.HonestMin[j] || v > feeds.HonestMax[j] {
			return false
		}
	}
	return true
}

func equalVals(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
