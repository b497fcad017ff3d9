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

// TestHardenedPositiveControl pins `make harden`'s positive control: the
// search against committee-weak finds five violations, and the hardened
// re-run of each ends correct, four of them by escalating to naive. Its
// stdout is pinned whole, with the output directory and the elapsed time
// normalised.
func TestHardenedPositiveControl(t *testing.T) {
	dir := t.TempDir()
	args := []string{"search", "-protocol", "committee-weak", "-n", "4", "-t", "1", "-L", "16",
		"-seed", "203", "-strategies", "16", "-schedules", "4", "-no-shrink", "-harden",
		"-expect-finding", "-out-dir", dir}
	code, stdout := runStdout(t, args)
	stdout = strings.ReplaceAll(stdout, dir, "harden-findings")
	stdout = regexp.MustCompile(`findings in \S+`).ReplaceAllString(stdout, "findings in ELAPSED")
	const want = `search: committee-weak: 128 runs, 5 findings in ELAPSED
finding 0: s2063974025443682496[equivocate,lie,equivocate,equivocate] -> [peer 1: output wrong at bit 2]
  wrote harden-findings/committee-weak-finding-00.dsr and harden-findings/committee-weak-finding-00.jsonl
  hardened: detected=false corrected=false final-correct=true ladder=[committee-weak] Q=28
finding 1: s7953752410955653305[lie,equivocate,deliver] -> [peer 2: output wrong at bit 5]
  wrote harden-findings/committee-weak-finding-01.dsr and harden-findings/committee-weak-finding-01.jsonl
  hardened: detected=true corrected=true final-correct=true ladder=[committee-weak naive] Q=44
finding 2: s7953752410955653305[lie,equivocate,deliver] -> [peer 3: output wrong at bit 8]
  wrote harden-findings/committee-weak-finding-02.dsr and harden-findings/committee-weak-finding-02.jsonl
  hardened: detected=true corrected=true final-correct=true ladder=[committee-weak naive] Q=44
finding 3: s7953752410955653305[lie,equivocate,deliver] -> [peer 0: output wrong at bit 11 peer 1: output wrong at bit 2]
  wrote harden-findings/committee-weak-finding-03.dsr and harden-findings/committee-weak-finding-03.jsonl
  hardened: detected=true corrected=true final-correct=true ladder=[committee-weak naive] Q=44
finding 4: s1692252817186645717[lie,flood] -> [peer 2: output wrong at bit 5 peer 3: output wrong at bit 0]
  wrote harden-findings/committee-weak-finding-04.dsr and harden-findings/committee-weak-finding-04.jsonl
  hardened: detected=true corrected=true final-correct=true ladder=[committee-weak naive] Q=44
`
	if code != 0 || stdout != want {
		t.Fatalf("hardened positive control exited %d (want 0):\n%s\nwant:\n%s", code, stdout, want)
	}
}

// runStdout runs args with os.Stdout sent to a file and returns the exit
// code and what was printed there.
func runStdout(t *testing.T, args []string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = saved
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}
