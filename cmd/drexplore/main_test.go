package main

import (
	"strings"
	"testing"
)

// TestExitCodeCleanExploration pins the passing path on the README
// example: every schedule of the tree is clean, exit 0.
func TestExitCodeCleanExploration(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-protocol", "crash1", "-n", "3", "-L", "12", "-crash", "0:6", "-depth", "6"}, &out)
	if code != 0 {
		t.Fatalf("clean exploration exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "exhaustive") || !strings.Contains(out.String(), "0 failures, 0 deadlocks") {
		t.Fatalf("no clean exhaustive summary:\n%s", out.String())
	}
}

// TestExitCodeBadFlags pins the usage path: malformed input exits 2
// before anything runs.
func TestExitCodeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-crash", "0"},
		{"-crash", "0:x"},
		{"-protocol", "bogus"},
		{"-no-such-flag"},
	} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, out.String())
		}
	}
}
