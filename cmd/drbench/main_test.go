package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExitCodeList pins -list: exit 0 and one line per experiment.
func TestExitCodeList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d:\n%s", code, errOut.String())
	}
	for _, e := range experiments.All() {
		if !strings.Contains(out.String(), e.ID+" ") {
			t.Errorf("-list output lacks %s:\n%s", e.ID, out.String())
		}
	}
}

// TestExitCodeBadFlags pins the usage path: an unknown experiment or an
// unknown flag exits 2 before anything runs. -bench is one: the
// benchmark is `go run ./benchmark`.
func TestExitCodeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-suite", "NOPE"},
		{"-bench"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s%s", args, code, out.String(), errOut.String())
		}
	}
}

// TestExitCodeQuickSuite pins the passing path on one quick experiment.
func TestExitCodeQuickSuite(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-suite", "A4", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("-suite A4 -quick exited %d:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[A4 completed in") {
		t.Fatalf("no A4 table:\n%s", out.String())
	}
}

// TestDocumentedSuitesExist holds every `drbench -suite <X>` that the
// top-level documents write to an experiment drbench can run: X is "all"
// or a comma-separated list of IDs that experiments.ByID resolves.
func TestDocumentedSuitesExist(t *testing.T) {
	suite := regexp.MustCompile(`drbench -suite ([A-Za-z0-9,]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range suite.FindAllStringSubmatch(string(data), -1) {
			if m[1] == "all" {
				continue
			}
			for _, id := range strings.Split(m[1], ",") {
				if _, ok := experiments.ByID(id); !ok {
					t.Errorf("%s: %q names no experiment", doc, m[0])
				}
			}
		}
	}
}
