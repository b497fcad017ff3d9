package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/download"
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
