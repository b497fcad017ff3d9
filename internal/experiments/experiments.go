// Package experiments regenerates every table and figure-equivalent of
// the paper's evaluation (see DESIGN.md's experiment index). The paper is
// a theory paper whose only display is Table 1 (the protocol comparison);
// each theorem's stated complexity is treated as a series to reproduce
// empirically. Experiments run on the deterministic des runtime so every
// number is reproducible from the seed.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/des"
	"repro/internal/sim"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as Markdown: the ID and title in bold, the
// rows with every column padded to its widest cell, and one bullet per
// note. drbench prints this, and EXPERIMENTS.md holds it verbatim.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "**%s — %s**\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for _, row := range append([][]string{t.Columns}, t.Rows...) {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "| %-*s ", widths[i], c)
		}
		fmt.Fprintln(w, "|")
	}
	line(t.Columns)
	for _, width := range widths {
		fmt.Fprintf(w, "|%s", strings.Repeat("-", width+2))
	}
	fmt.Fprintln(w, "|")
	for _, row := range t.Rows {
		line(row)
	}
	if len(t.Notes) > 0 {
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "- %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Config scales the suite.
type Config struct {
	// Seed drives all executions.
	Seed int64
	// Quick shrinks sizes for smoke runs (CI); full sizes match
	// EXPERIMENTS.md.
	Quick bool
}

// Experiment is a named generator. Cells, when set, lists the runs its
// table is built from, one Cell per des run; it is nil for the
// experiments that build their runs inside the table or are no des run.
type Experiment struct {
	ID    string
	Title string
	Cells func(cfg Config) []Cell
	table func(cfg Config) (*Table, error)
}

// Run builds the experiment's table.
func (e Experiment) Run(cfg Config) (*Table, error) {
	t, err := e.table(cfg)
	if err != nil {
		return nil, err
	}
	t.ID, t.Title = e.ID, e.Title
	return t, nil
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Table 1: protocol comparison at common scale (measured)", T1Cells, table1},
		{"E1", "Thm 2.3: single-crash deterministic Download, Q vs n", E1Cells, e1Crash1},
		{"E2", "Thm 2.13: t-crash deterministic Download for any β < 1, Q vs β", E2Cells, e2CrashKBeta},
		{"E3", "Claim 4: per-phase unknown-bit decay in Algorithm 2", nil, e3Decay},
		{"E4", "Thm 3.4: deterministic Byzantine committee Download, Q vs β (< 1/2)", E4Cells, e4Committee},
		{"E5", "Thm 3.7: 2-cycle randomized vs deterministic baselines, Q vs L", E5Cells, e5TwoCycle},
		{"E6", "Thm 3.12: multi-cycle randomized Download, expected Q", E6Cells, e6MultiCycle},
		{"E7", "Thm 3.1: deterministic lower bound attack (β ≥ 1/2)", nil, e7DetAttack},
		{"E8", "Thm 3.2: randomized lower bound attack (β ≥ 1/2)", nil, e8RandAttack},
		{"E9", "Thm 2.13: time complexity vs message size b", E9Cells, e9TimeVsB},
		{"E10", "Thm 4.2: oracle ODC — baseline vs Download-based", nil, e10Oracle},
		{"A1", "Ablation: 2-cycle frequency threshold k", nil, a1Threshold},
		{"A2", "Ablation: adversary strategies per protocol", nil, a2Adversaries},
		{"A3", "Ablation: Thm 2.13 fast stage-3 rule vs base Algorithm 2", A3Cells, a3FastVariant},
		{"A4", "Ablation: synchronous lockstep vs adversarial asynchrony", nil, a4Synchrony},
		{"A5", "Extension: dynamic Byzantine, growing corruption union at fixed concurrency", nil, a5DynamicByzantine},
		{"A6", "Ablation: Algorithm 2 reassignment strategy (hash vs rotation)", nil, a6Reassign},
		{"A7", "Verification: bounded-exhaustive schedule enumeration", nil, a7Exhaustive},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Cell is one simulator run of an experiment. Its Spec carries seeded
// delay and crash plans that a run consumes, so a Spec runs once; call
// the experiment's Cells again for a fresh one.
type Cell struct {
	Name string
	Spec *sim.Spec
}

// Run executes the cell on the des runtime and fails unless every honest
// peer output X.
func (c Cell) Run() (*sim.Result, error) {
	res, err := des.New().Run(c.Spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: %v", c.Name, res.Failures)
	}
	return res, nil
}

// config is the run shape every experiment starts from: message size
// b = max(64, L/n).
func config(seed int64, n, t, L int) sim.Config {
	return sim.Config{N: n, T: t, L: L, MsgBits: max(64, L/n), Seed: seed}
}

// crash makes the faulty peers crash at the points plan gives them. An
// empty faulty set runs failure-free, as under sim.FaultNone.
func crash(faulty []sim.PeerID, plan sim.CrashPolicy) sim.FaultSpec {
	return sim.FaultSpec{Model: sim.FaultCrash, Faulty: faulty, Crash: plan}
}

// byzantine makes the faulty peers run liar in place of the protocol. An
// empty faulty set runs failure-free, as under sim.FaultNone.
func byzantine(faulty []sim.PeerID, liar func(sim.PeerID, *sim.Knowledge) sim.Peer) sim.FaultSpec {
	return sim.FaultSpec{Model: sim.FaultByzantine, Faulty: faulty, NewByzantine: liar}
}

func itoa(v int) string          { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string      { return fmt.Sprintf("%.2f", v) }
func fratio(a, b float64) string { return fmt.Sprintf("%.2f", a/b) }
