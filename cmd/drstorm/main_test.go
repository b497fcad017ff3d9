package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocols"
)

// TestExitCodeCleanStorm pins the passing path: a small naive storm
// survives and the matrix reports OK with exit 0.
func TestExitCodeCleanStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("socket storm in -short mode")
	}
	var out strings.Builder
	code := run([]string{"-protocols", "naive", "-storms", "1", "-L", "64", "-b", "16"}, &out, nil)
	if code != 0 {
		t.Fatalf("clean storm exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: all storms survived") {
		t.Fatalf("no OK summary:\n%s", out.String())
	}
}

// TestExitCodeBreachGate is the regression test for the CI gate: a storm
// that violates an invariant must exit 3 (not 0, not 1) and leave its
// artifacts — the spec JSON and a .dsr replay — in the -out directory.
// The breach is provoked by substituting an impossible envelope for
// naive, so the same storm that passes above breaches here.
func TestExitCodeBreachGate(t *testing.T) {
	if testing.Short() {
		t.Skip("socket storm in -short mode")
	}
	naive, _ := protocols.Lookup("naive")
	saved := naive.Envelope
	naive.Envelope = protocols.Envelope{
		MaxQ: func(n, tb, L, b int) int { return 0 },
	}
	defer func() { naive.Envelope = saved }()

	dir := t.TempDir()
	var out strings.Builder
	code := run([]string{"-protocols", "naive", "-storms", "1", "-L", "64", "-b", "16",
		"-out", dir, "-shrink=false"}, &out, nil)
	if code != 3 {
		t.Fatalf("breached storm exited %d, want 3:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BREACH") || !strings.Contains(out.String(), "envelope") {
		t.Fatalf("breach not reported:\n%s", out.String())
	}
	for _, f := range []string{"storm-naive-s1.json", "storm-naive-s1.dsr"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

// TestExitCodeBadFlags pins usage errors to exit 2, distinct from the
// breach gate's 3.
func TestExitCodeBadFlags(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, nil); code != 2 {
		t.Fatalf("bad flag exited %d", code)
	}
	if code := run([]string{"-protocols", "no-such-protocol"}, &out, nil); code != 2 {
		t.Fatalf("unknown protocol exited %d", code)
	}
}

// TestExitCodeInterrupt pins the signal contract: an interrupted soak
// still flushes the (partial) matrix and exits 130, so a timed-out CI
// job uploads the evidence it has instead of dying silently.
func TestExitCodeInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt) // fires before the first storm
	var out strings.Builder
	code := run([]string{"-protocols", "naive", "-storms", "3", "-L", "64", "-b", "16"}, &out, interrupt)
	if code != 130 {
		t.Fatalf("interrupted soak exited %d, want 130:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "INTERRUPTED") {
		t.Fatalf("partial matrix not flushed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PROTOCOL") {
		t.Fatalf("matrix header missing from flush:\n%s", out.String())
	}
}

// TestGridExitCodeCleanSoak pins grid mode's passing path on a tiny
// sweep: exit 0, a survival matrix with one pass/seeds entry per cell,
// and an OK summary.
func TestGridExitCodeCleanSoak(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-protocols", "naive", "-n", "4", "-L", "128",
		"-drops", "0", "-flaps", "0,2", "-storms", "1"}, &out, nil)
	if code != 0 {
		t.Fatalf("clean grid exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{"survival matrix", "d=0.00/f=0   d=0.00/f=2", "1/1          1/1", "OK: all storms survived"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("no %q in the summary:\n%s", want, out.String())
		}
	}
}

// TestGridExitCodeBreachGate pins that a grid cell is judged by
// storm.Check like a storm: with an impossible envelope for naive a
// correct run breaches, the sweep exits 3, and each breached cell leaves
// its own spec JSON and .dsr.
func TestGridExitCodeBreachGate(t *testing.T) {
	naive, _ := protocols.Lookup("naive")
	saved := naive.Envelope
	naive.Envelope = protocols.Envelope{
		MaxQ: func(n, tb, L, b int) int { return 0 },
	}
	defer func() { naive.Envelope = saved }()

	dir := t.TempDir()
	var out strings.Builder
	code := run([]string{"-protocols", "naive", "-n", "4", "-L", "128",
		"-drops", "0,0.1", "-flaps", "0", "-storms", "1", "-out", dir, "-shrink=false"}, &out, nil)
	if code != 3 {
		t.Fatalf("breached grid exited %d, want 3:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "envelope") {
		t.Fatalf("breach not reported:\n%s", out.String())
	}
	for _, f := range []string{
		"storm-naive-d0.00-f0-seed1.json", "storm-naive-d0.00-f0-seed1.dsr",
		"storm-naive-d0.10-f0-seed1.json", "storm-naive-d0.10-f0-seed1.dsr",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

// TestGridExitCodeInterrupt pins the signal contract in grid mode: the
// partial survival matrix is flushed and the sweep exits 130.
func TestGridExitCodeInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt) // fires before the first run
	var out strings.Builder
	code := run([]string{"-protocols", "naive,crashk", "-n", "4", "-L", "128",
		"-drops", "0,0.1", "-flaps", "0", "-storms", "3"}, &out, interrupt)
	if code != 130 {
		t.Fatalf("interrupted grid exited %d, want 130:\n%s", code, out.String())
	}
	for _, want := range []string{"INTERRUPTED: partial matrix flushed", "survival matrix"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("no %q in the flush:\n%s", want, out.String())
		}
	}
}

// TestGridExitCodeBadFlags pins grid usage errors to exit 2, distinct
// from the breach gate's 3.
func TestGridExitCodeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-drops", "abc"},
		{"-flaps", "0,x"},
		{"-source-faults", "fail=lots"},
		{"-drops", "0", "-budget", "1m"},
	} {
		var out strings.Builder
		if code := run(args, &out, nil); code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, out.String())
		}
	}
}
