package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const corpus = "../../internal/dst/testdata/replays"

// TestVerifyCorpus pins the CI step `drshrink verify <corpus>`: every
// committed replay reproduces its expectation and event hash through the
// shipped binary's code path, exit 0.
func TestVerifyCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpus, "*.dsr"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no replay corpus under %s (err %v)", corpus, err)
	}
	if code := run(append([]string{"verify"}, files...)); code != 0 {
		t.Fatalf("verify over the committed corpus exited %d, want 0", code)
	}
}

// TestVerifyRejectsWrongHash: one hex digit of event_hash changed is a
// replay that no longer reproduces its recording — exit 1, also when the
// other files on the command line are fine.
func TestVerifyRejectsWrongHash(t *testing.T) {
	good := filepath.Join(corpus, "committee-correct-pinned.dsr")
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`"event_hash": "([0-9a-f])`)
	m := re.FindSubmatchIndex(b)
	if m == nil {
		t.Fatalf("%s has no event_hash", good)
	}
	if b[m[2]] == '0' {
		b[m[2]] = '1'
	} else {
		b[m[2]] = '0'
	}
	bad := filepath.Join(t.TempDir(), "tampered.dsr")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"verify", good, bad}); code != 1 {
		t.Fatalf("verify of a tampered event_hash exited %d, want 1", code)
	}
}

// TestUsageErrors pins exit 2 for what is not a command line at all.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}, {"verify"}} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", args, code)
		}
	}
}

// TestExitCodeCleanExploration pins explore's passing path on the README
// example: every schedule of the tree is clean, exit 0.
func TestExitCodeCleanExploration(t *testing.T) {
	args := []string{"explore", "-protocol", "crash1", "-n", "3", "-L", "12", "-crash", "0:6", "-depth", "6"}
	if code := run(args); code != 0 {
		t.Fatalf("clean exploration exited %d, want 0", code)
	}
}

// TestExploreWitnessVerifies pins explore's failing path: the planted
// Algorithm 1 deadlock (crash1-legacy) exits 1, and the witness it writes
// with -o passes `drshrink verify` — expectation and event hash.
func TestExploreWitnessVerifies(t *testing.T) {
	out := filepath.Join(t.TempDir(), "witness.dsr")
	args := []string{"explore", "-protocol", "crash1-legacy", "-n", "3", "-t", "1", "-L", "1",
		"-seed", "7", "-crash", "0:4", "-depth", "4", "-o", out}
	if code := run(args); code != 1 {
		t.Fatalf("exploration of a planted deadlock exited %d, want 1", code)
	}
	if code := run([]string{"verify", out}); code != 0 {
		t.Fatalf("verify of the explore witness exited %d, want 0", code)
	}
}

// TestExitCodeBadFlags pins explore's usage path: malformed input exits 2
// before anything runs.
func TestExitCodeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"explore", "-crash", "0"},
		{"explore", "-crash", "0:x"},
		{"explore", "-protocol", "bogus"},
		{"explore", "-depth", "0"},
		{"explore", "-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", args, code)
		}
	}
}

// TestListText pins `drshrink list`: every registry name in sorted order
// with its description and tag.
func TestListText(t *testing.T) {
	const want = `committee          Theorem 3.4 committees, Byzantine β < 1/2
committee-weak     committee with acceptance threshold t instead of t+1 (unsafe) [test hook]
crash1             Algorithm 1: one crash fault, Q = O(L/n)
crash1-legacy      Algorithm 1 with the PRE-FIX silent termination (deadlocks at n=4) [test hook]
crashk             Algorithm 2: t crash faults
crashk-fast        Algorithm 2 with the fast stage-3 rule
multicycle         Theorem 3.12 multi-cycle randomized protocol [randomized]
multicycle-weak    multi-cycle with frequency threshold forced to 1 (unsafe) [test hook]
naive              every peer queries the full input (Q = L)
twocycle           Theorem 3.7 two-cycle randomized protocol [randomized]
twocycle-weak      two-cycle with frequency threshold forced to 1 (unsafe) [test hook]
`
	var out strings.Builder
	if code := cmdList(&out); code != 0 || out.String() != want {
		t.Fatalf("list exited %d:\n%s\nwant:\n%s", code, out.String(), want)
	}
}
