package main

import (
	"strings"
	"testing"
)

// oracledemo runs args and returns the exit code and what it printed.
func oracledemo(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodeScenarios: a small scenario on either network model keeps
// the honest range and exits 0.
func TestExitCodeScenarios(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "8", "-cells", "8"},
		{"-nodes", "8", "-cells", "8", "-network", "crash"},
	} {
		code, out, errOut := oracledemo(args...)
		if code != 0 {
			t.Errorf("%q exited %d, want 0:\n%s%s", args, code, out, errOut)
		}
		if !strings.Contains(out, "8 oracle nodes (2 ") {
			t.Errorf("%q: scenario line does not default to n/4 = 2 faulty nodes:\n%s", args, out)
		}
	}
}

// TestExitCodeUsage: an unknown flag, an unknown network model and a fault
// bound of n exit 2 before any work, so nothing — not the baseline either —
// is printed on stdout.
func TestExitCodeUsage(t *testing.T) {
	for _, c := range []struct {
		args      []string
		errSubstr string
	}{
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-network", "nope"}, `unknown network model "nope"`},
		{[]string{"-nodefaults", "8", "-nodes", "8"}, "node fault bound 8"},
	} {
		code, out, errOut := oracledemo(c.args...)
		if code != 2 {
			t.Errorf("%q exited %d, want 2:\n%s%s", c.args, code, out, errOut)
		}
		if out != "" {
			t.Errorf("%q wrote to stdout before refusing:\n%s", c.args, out)
		}
		if !strings.Contains(errOut, c.errSubstr) {
			t.Errorf("%q: stderr %q does not name %q", c.args, errOut, c.errSubstr)
		}
	}
}

// TestZeroNodeFaults: -nodefaults 0 asks for a fault-free oracle network;
// only the default of -1 means n/4.
func TestZeroNodeFaults(t *testing.T) {
	code, out, errOut := oracledemo("-nodes", "8", "-cells", "8", "-nodefaults", "0")
	if code != 0 {
		t.Fatalf("exited %d, want 0:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "8 oracle nodes (0 byzantine-faulty)") {
		t.Fatalf("scenario line does not say 0 faulty nodes:\n%s", out)
	}
}
