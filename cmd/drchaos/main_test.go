package main

import (
	"strings"
	"testing"

	"repro/download"
	"repro/internal/conformance"
)

// TestExitCodeCleanSoak pins the passing path on a tiny fast sweep:
// exit 0 and an OK summary.
func TestExitCodeCleanSoak(t *testing.T) {
	var out strings.Builder
	code := run([]string{
		"-protocols", "naive", "-n", "4", "-L", "128",
		"-drops", "0", "-flaps", "0", "-seeds", "1", "-partition=false",
	}, &out, nil)
	if code != 0 {
		t.Fatalf("clean soak exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: all runs survived") {
		t.Fatalf("no OK summary:\n%s", out.String())
	}
}

// TestExitCodeInterrupt pins the signal contract: a soak whose interrupt
// channel fires must still flush the (partial) survival matrix and exit
// 130, so an interrupted CI job uploads the evidence it has instead of
// dying silently.
func TestExitCodeInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt) // fires before the first run
	var out strings.Builder
	code := run([]string{
		"-protocols", "naive,crashk", "-n", "4", "-L", "128",
		"-drops", "0,0.1", "-flaps", "0", "-seeds", "3", "-partition=false",
	}, &out, interrupt)
	if code != 130 {
		t.Fatalf("interrupted soak exited %d, want 130:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "INTERRUPTED: partial matrix flushed") {
		t.Fatalf("partial matrix not flushed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "survival matrix") {
		t.Fatalf("matrix header missing from flush:\n%s", out.String())
	}
}

// TestExitCodeBadFlags pins usage errors to exit 2, distinct from
// survival failures.
func TestExitCodeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		// An explicit -faulty above an explicit -t.
		{"-protocols", "naive", "-t", "1", "-faulty", "2"},
		// Jitter is whole milliseconds (storm.NetPlan.DelayMs).
		{"-protocols", "naive", "-delay", "1500us"},
	} {
		var out strings.Builder
		if code := run(args, &out, nil); code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, out.String())
		}
	}
}

// TestExitCodeFaultySoak pins -faulty: with -t left at 0 the fault bound
// comes from the protocol's conformance bound, so one absent peer is a
// clean soak, not a run refused for exceeding t=0.
func TestExitCodeFaultySoak(t *testing.T) {
	var out strings.Builder
	code := run([]string{
		"-protocols", "naive", "-n", "4", "-L", "128", "-faulty", "1",
		"-drops", "0", "-flaps", "0", "-seeds", "1", "-partition=false",
	}, &out, nil)
	if code != 0 {
		t.Fatalf("soak with one faulty peer exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: all runs survived") {
		t.Fatalf("no OK summary:\n%s", out.String())
	}
}

// TestExitCodeBreachGate pins that a cell is judged by storm.Check, not
// by correctness alone: with an impossible envelope for naive (Q must be
// ≤ 0 bits) a correct run breaches its envelope and the soak exits 1,
// naming the envelope.
func TestExitCodeBreachGate(t *testing.T) {
	saved := conformance.Envelopes[download.Naive]
	conformance.Envelopes[download.Naive] = conformance.Envelope{
		MaxQ: func(n, tb, L, b int) int { return 0 },
	}
	defer func() { conformance.Envelopes[download.Naive] = saved }()

	var out strings.Builder
	code := run([]string{
		"-protocols", "naive", "-n", "4", "-L", "128",
		"-drops", "0", "-flaps", "0", "-seeds", "1", "-partition=false",
	}, &out, nil)
	if code != 1 {
		t.Fatalf("breached soak exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "envelope") {
		t.Fatalf("breach not reported:\n%s", out.String())
	}
}
