package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/download"
	"repro/internal/trace"
)

// drsim runs args and returns the exit code and what it printed.
func drsim(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodeList pins -list: exit 0 and one line per protocol.
func TestExitCodeList(t *testing.T) {
	code, out, errOut := drsim("-list")
	if code != 0 {
		t.Fatalf("-list exited %d:\n%s", code, errOut)
	}
	for _, info := range download.Protocols() {
		if !strings.Contains(out, string(info.Protocol)+" ") {
			t.Errorf("-list output lacks %s:\n%s", info.Protocol, out)
		}
	}
}

// TestListText pins -list's table, one row per protocol in Table 1's
// order.
func TestListText(t *testing.T) {
	const want = `PROTOCOL     DETERMINISM    FAULTS      RESILIENCE             QUERY                SOURCE
naive        deterministic  any         any β < 1              L                    folklore; optimal for β ≥ 1/2 (Thm 3.1/3.2)
crash1       deterministic  crash       t = 1                  L/n + L/(n(n−1))     Thm 2.3
crashk       deterministic  crash       any β < 1              O(L/n)               Thm 2.13 (Alg. 2)
crashk-fast  deterministic  crash       any β < 1              O(L/n), better time  Thm 2.13 (modified)
committee    deterministic  byzantine   β < 1/2                L(2t+1)/n ≈ 2βL      Thm 3.4
twocycle     randomized     byzantine   β < 1/2                Õ(L/n) whp           Thm 3.7 (Protocol 4)
multicycle   randomized     byzantine   β < 1/2                Õ(L/n) expected      Thm 3.12
`
	if code, out, _ := drsim("-list"); code != 0 || out != want {
		t.Fatalf("-list exited %d:\n%s\nwant:\n%s", code, out, want)
	}
}

// TestExitCodeDesRun pins the passing path on the simulator.
func TestExitCodeDesRun(t *testing.T) {
	code, out, errOut := drsim("-protocol", "naive", "-n", "4", "-t", "0", "-L", "64")
	if code != 0 {
		t.Fatalf("des naive exited %d:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "correct     true") {
		t.Fatalf("no correct report:\n%s", out)
	}
}

// TestExitCodeBadProtocol pins the usage path: an unknown protocol or
// flag exits 2.
func TestExitCodeBadProtocol(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "nope"},
		{"-no-such-flag"},
	} {
		if code, out, errOut := drsim(args...); code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s%s", args, code, out, errOut)
		}
	}
}

// TestExitCodeTCPSourceFaults drives the socket runtime's query plane end
// to end through the CLI: a flaky source refuses queries, the clients'
// breakers retry them, and the download still completes.
func TestExitCodeTCPSourceFaults(t *testing.T) {
	code, out, errOut := drsim("-tcp", "-protocol", "naive", "-n", "4", "-t", "0", "-L", "256",
		"-source-faults", "fail=0.3,seed=3")
	if code != 0 {
		t.Fatalf("tcp naive under source faults exited %d:\n%s%s", code, out, errOut)
	}
	m := regexp.MustCompile(`(?m)^source\s+\d+ failures, (\d+) retries`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no source line:\n%s", out)
	}
	if retries, _ := strconv.Atoi(m[1]); retries == 0 {
		t.Errorf("the source line reports no retries:\n%s", out)
	}
}

// TestTimeLabel pins the unit of the time line per runtime: virtual units
// on des, wall-clock seconds on tcp, printed with enough digits that a
// run of a few milliseconds does not read 0.
func TestTimeLabel(t *testing.T) {
	for _, tc := range []struct {
		args []string
		line *regexp.Regexp
	}{
		{[]string{"-protocol", "naive", "-n", "4", "-t", "0", "-L", "64"},
			regexp.MustCompile(`(?m)^time\s+([0-9.]+) \(virtual units; 1 = max network latency\)$`)},
		{[]string{"-tcp", "-protocol", "naive", "-n", "4", "-t", "0", "-L", "64"},
			regexp.MustCompile(`(?m)^time\s+([0-9.]+) s \(wall clock since the run started\)$`)},
	} {
		code, out, errOut := drsim(tc.args...)
		if code != 0 {
			t.Fatalf("%v exited %d:\n%s%s", tc.args, code, out, errOut)
		}
		m := tc.line.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: no time line matching %s:\n%s", tc.args, tc.line, out)
		}
		if v, _ := strconv.ParseFloat(m[1], 64); v <= 0 {
			t.Errorf("%v: the time line reads %s", tc.args, m[1])
		}
	}
}

// TestExitCodeTCPTrace: -tracejson on the socket runtime exits 0 and
// writes the run's event stream, which the trace reader parses.
func TestExitCodeTCPTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tcp.jsonl")
	code, out, errOut := drsim("-protocol", "committee", "-n", "8", "-t", "2", "-L", "1024", "-tcp", "-tracejson", path)
	if code != 0 {
		t.Fatalf("tcp committee with -tracejson exited %d:\n%s%s", code, out, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	kinds := trace.Analyze(events).ByKind
	for _, kind := range []string{"start", "send", "deliver", "query", "qreply", "phase", "terminate"} {
		if kinds[kind] == 0 {
			t.Errorf("the tcp trace has no %q event (kinds: %v)", kind, kinds)
		}
	}
}

// TestHardenedText pins the whole report of a hardened run whose fault
// bound is violated (32 liars against t = 15): the twocycle rung is
// caught by its audit, committee deadlocks, and naive ends correct.
func TestHardenedText(t *testing.T) {
	const want = `protocol    twocycle  (n=64 t=15 L=1024 seed=26 behavior="liar")
correct     true
Q           1051 bits/peer (max over honest; avg 1048.1; naive would be 1024)
messages    20160 (1181376 payload bits)
time        11.28 (virtual units; 1 = max network latency)
hardening   detected=true corrected=true ladder=[twocycle committee naive]
            audit 1024 bits (in Q), warm cache served 32520 bits free
attempt 0   twocycle   violations=60 audited=32 peers
            ! audit-mismatch: peer 9 output wrong at audited bit 177
            ! audit-mismatch: peer 9 output wrong at audited bit 154
            ! audit-mismatch: peer 9 output wrong at audited bit 131
            ! audit-mismatch: peer 9 output wrong at audited bit 21
            ! audit-mismatch: peer 9 output wrong at audited bit 250
            ! audit-mismatch: peer 9 output wrong at audited bit 300
            ! audit-mismatch: peer 15 output wrong at audited bit 168
            ! audit-mismatch: peer 15 output wrong at audited bit 96
            ! audit-mismatch: peer 15 output wrong at audited bit 358
            ! audit-mismatch: peer 15 output wrong at audited bit 226
            ! audit-mismatch: peer 15 output wrong at audited bit 132
            ! audit-mismatch: peer 15 output wrong at audited bit 403
            ! audit-mismatch: peer 23 output wrong at audited bit 225
            ! audit-mismatch: peer 23 output wrong at audited bit 171
            ! audit-mismatch: peer 23 output wrong at audited bit 284
            ! audit-mismatch: peer 23 output wrong at audited bit 205
            ! audit-mismatch: peer 23 output wrong at audited bit 48
            ! audit-mismatch: peer 23 output wrong at audited bit 475
            ! audit-mismatch: peer 23 output wrong at audited bit 30
            ! audit-mismatch: peer 23 output wrong at audited bit 472
            ! audit-mismatch: peer 41 output wrong at audited bit 290
            ! audit-mismatch: peer 41 output wrong at audited bit 329
            ! audit-mismatch: peer 41 output wrong at audited bit 220
            ! audit-mismatch: peer 41 output wrong at audited bit 9
            ! audit-mismatch: peer 41 output wrong at audited bit 509
            ! audit-mismatch: peer 41 output wrong at audited bit 454
            ! audit-mismatch: peer 41 output wrong at audited bit 479
            ! audit-mismatch: peer 41 output wrong at audited bit 348
            ! audit-mismatch: peer 43 output wrong at audited bit 33
            ! audit-mismatch: peer 43 output wrong at audited bit 503
            ! audit-mismatch: peer 43 output wrong at audited bit 263
            ! audit-mismatch: peer 43 output wrong at audited bit 505
            ! audit-mismatch: peer 43 output wrong at audited bit 471
            ! audit-mismatch: peer 43 output wrong at audited bit 391
            ! audit-mismatch: peer 43 output wrong at audited bit 372
            ! audit-mismatch: peer 43 output wrong at audited bit 504
            ! audit-mismatch: peer 43 output wrong at audited bit 210
            ! audit-mismatch: peer 49 output wrong at audited bit 445
            ! audit-mismatch: peer 49 output wrong at audited bit 324
            ! audit-mismatch: peer 49 output wrong at audited bit 495
            ! audit-mismatch: peer 49 output wrong at audited bit 13
            ! audit-mismatch: peer 49 output wrong at audited bit 447
            ! audit-mismatch: peer 49 output wrong at audited bit 175
            ! audit-mismatch: peer 49 output wrong at audited bit 240
            ! audit-mismatch: peer 49 output wrong at audited bit 123
            ! audit-mismatch: peer 49 output wrong at audited bit 20
            ! audit-mismatch: peer 55 output wrong at audited bit 301
            ! audit-mismatch: peer 55 output wrong at audited bit 355
            ! audit-mismatch: peer 55 output wrong at audited bit 15
            ! audit-mismatch: peer 55 output wrong at audited bit 152
            ! audit-mismatch: peer 55 output wrong at audited bit 216
            ! audit-mismatch: peer 55 output wrong at audited bit 17
            ! audit-mismatch: peer 55 output wrong at audited bit 52
            ! audit-mismatch: peer 55 output wrong at audited bit 184
            ! audit-mismatch: peer 55 output wrong at audited bit 177
            ! audit-mismatch: peer 61 output wrong at audited bit 480
            ! audit-mismatch: peer 61 output wrong at audited bit 92
            ! audit-mismatch: peer 61 output wrong at audited bit 317
            ! audit-mismatch: peer 61 output wrong at audited bit 123
            ! audit-mismatch: peer 61 output wrong at audited bit 289
attempt 1   committee  violations=1 audited=0 peers
            ! deadlock: all live honest peers blocked with no deliverable events
attempt 2   naive      violations=0 audited=32 peers
`
	code, out, errOut := drsim("-protocol", "twocycle", "-n", "64", "-t", "15", "-L", "1024",
		"-faulty", "32", "-behavior", "liar", "-allow-excess", "-seed", "26", "-harden")
	if code != 0 || out != want {
		t.Fatalf("-harden exited %d:\n%s%s\nwant:\n%s", code, out, errOut, want)
	}
}

// TestVerboseText pins the report of a small des run with its -v
// per-peer table, crashed peers included.
func TestVerboseText(t *testing.T) {
	const want = `protocol    crashk  (n=6 t=2 L=256 seed=1 behavior="crash")
correct     true
Q           86 bits/peer (max over honest; avg 71.2; naive would be 256)
messages    552 (31637 payload bits)
time        19.97 (virtual units; 1 = max network latency)
PEER  HONEST  CRASHED  TERMINATED  QUERYBITS  MSGS
0     false   true     false       0          0
1     true    false    true        83         135
2     true    false    true        56         135
3     false   true     false       0          0
4     true    false    true        86         140
5     true    false    true        60         142
`
	code, out, errOut := drsim("-protocol", "crashk", "-n", "6", "-t", "2", "-L", "256", "-behavior", "crash", "-v")
	if code != 0 || out != want {
		t.Fatalf("-v exited %d:\n%s%s\nwant:\n%s", code, out, errOut, want)
	}
}
