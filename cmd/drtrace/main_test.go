package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// drtrace runs args and returns the exit code and what it printed.
func drtrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// testdata/crashk4.jsonl is the trace written by
//
//	drsim -protocol crashk -n 4 -t 1 -L 64 -tracejson crashk4.jsonl
const fixture = "testdata/crashk4.jsonl"

// TestExitCodeUsage pins the usage errors: no trace, two traces, or an
// unknown flag exits 2.
func TestExitCodeUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{fixture, fixture},
		{"-no-such-flag", fixture},
	} {
		if code, out, errOut := drtrace(args...); code != 2 {
			t.Errorf("%q exited %d, want 2:\n%s%s", args, code, out, errOut)
		}
	}
}

// TestExitCodeMissingFile: a trace that cannot be opened exits 2 and says
// why on stderr.
func TestExitCodeMissingFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none.jsonl")
	code, out, errOut := drtrace(missing)
	if code != 2 || !strings.Contains(errOut, "none.jsonl") {
		t.Errorf("a missing trace exited %d, want 2:\n%s%s", code, out, errOut)
	}
}

// TestExitCodeMalformedLine: a line that is not a JSON event exits 2 and
// names the line.
func TestExitCodeMalformedLine(t *testing.T) {
	good, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, append(good, "{\"t\":1,\"kind\":\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := drtrace(bad)
	if code != 2 || !strings.Contains(errOut, "line 105") {
		t.Errorf("a malformed line exited %d, want 2 naming line 105:\n%s%s", code, out, errOut)
	}
}

// TestSummaryOfDrsimTrace: the trace of a 4-peer drsim run summarizes with
// exit 0, and -peers prints one row per peer, each of which queried the
// source and terminated.
func TestSummaryOfDrsimTrace(t *testing.T) {
	code, out, errOut := drtrace("-peers", "-timeline", fixture)
	if code != 0 {
		t.Fatalf("exited %d:\n%s%s", code, out, errOut)
	}
	if !strings.HasPrefix(out, "events 104 ") || !strings.Contains(out, "message types:") {
		t.Errorf("no event summary:\n%s", out)
	}
	rows := regexp.MustCompile(`(?m)^(\d+)\s+\d+\s+\d+\s+1\s+\d+\s+false\s+\d+\.\d\d$`).FindAllStringSubmatch(out, -1)
	if len(rows) != 4 {
		t.Fatalf("%d peer rows of a queried, terminated peer, want 4:\n%s", len(rows), out)
	}
	for i, row := range rows {
		if row[1] != strconv.Itoa(i) {
			t.Errorf("row %d is peer %s, want peer %d", i, row[1], i)
		}
	}
}
