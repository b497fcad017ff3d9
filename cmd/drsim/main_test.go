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
