package main

import (
	"strings"
	"testing"

	"repro/internal/protocols"
)

// TestExitCodePropagatesEnvelopeFailure is the regression test for the
// bug where drconform printed a failing row but still exited 0, making
// the CI gate decorative: a protocol row that violates its Q/M bound
// must drive a nonzero exit. The violation is provoked by substituting
// an impossible envelope for naive (Q must be ≤ 0 bits), so the same
// small grid that passes below fails here.
func TestExitCodePropagatesEnvelopeFailure(t *testing.T) {
	naive, _ := protocols.Lookup("naive")
	saved := naive.Envelope
	naive.Envelope = protocols.Envelope{
		MaxQ: func(n, tb, L, b int) int { return 0 },
	}
	defer func() { naive.Envelope = saved }()

	var out strings.Builder
	code := run([]string{"-n", "6", "-L", "64", "-seeds", "1"}, &out, nil)
	if code == 0 {
		t.Fatalf("envelope violation exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "envelope: Q") {
		t.Fatalf("violation not reported in output:\n%s", out.String())
	}
}

// TestExitCodeCleanGrid pins the passing path of the same grid: exit 0
// and an OK summary.
func TestExitCodeCleanGrid(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-n", "6", "-L", "64", "-seeds", "1"}, &out, nil); code != 0 {
		t.Fatalf("clean grid exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK:") {
		t.Fatalf("no OK summary:\n%s", out.String())
	}
}

// TestExitCodeFixtureMode runs the committed corpus (des column only,
// for speed) through the CLI path and requires exit 0.
func TestExitCodeFixtureMode(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-fixtures",
		"-fixture-dir", "../../internal/conformance/fixtures"}, &out, nil)
	if code != 0 {
		t.Fatalf("fixture mode exited %d:\n%s", code, out.String())
	}
}

// TestExitCodeBadFlags pins usage errors to exit 2, distinct from
// conformance failures.
func TestExitCodeBadFlags(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, nil); code != 2 {
		t.Fatalf("bad flag exited %d", code)
	}
}

// TestExitCodeInterrupt pins the signal contract: a sweep whose
// interrupt channel fires must still flush the (partial) matrix and
// exit 130, so an interrupted CI job uploads the evidence it has
// instead of dying silently.
func TestExitCodeInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt) // fires before the first cell-run
	var out strings.Builder
	code := run([]string{"-n", "6", "-L", "64", "-seeds", "3"}, &out, interrupt)
	if code != 130 {
		t.Fatalf("interrupted sweep exited %d, want 130:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "INTERRUPTED") {
		t.Fatalf("partial matrix not flushed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PROTOCOL") {
		t.Fatalf("matrix header missing from flush:\n%s", out.String())
	}
}

// TestExitCodeEveryDesColumn runs the SRC, MIR and HARDEN columns on a
// small sweep: each is des again behind a flaky source, behind a
// Byzantine-majority mirror fleet, or under the hardening supervisor,
// and every one of their cells must pass.
func TestExitCodeEveryDesColumn(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-n", "6", "-L", "64", "-seeds", "1", "-harden", "-flaky-source",
		"-mirrors", "mirrors=5,byz=3,behavior=mixed,seed=7"}, &out, nil)
	if code != 0 {
		t.Fatalf("sweep with every des column exited %d:\n%s", code, out.String())
	}
	for _, head := range []string{"SRC", "MIR", "HARDEN(d/e/c)"} {
		if !strings.Contains(out.String(), head) {
			t.Errorf("no %s column:\n%s", head, out.String())
		}
	}
}
