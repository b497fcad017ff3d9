package regression

import (
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// docPath is the document whose tables TestExperimentsDoc pins.
const docPath = "../../EXPERIMENTS.md"

// TestExperimentsDoc runs every experiment at full size, seed 7, and
// holds EXPERIMENTS.md to the run: each experiment's table, rendered by
// Table.Fprint, sits between "<!-- drbench:<ID> -->" and
// "<!-- /drbench:<ID> -->". Regenerate the blocks with -update, together
// with the goldens.
func TestExperimentsDoc(t *testing.T) {
	t.Parallel()
	all := experiments.All()
	rendered := make([]string, len(all))
	ok := t.Run("run", func(t *testing.T) {
		for i, e := range all {
			t.Run(e.ID, func(t *testing.T) {
				t.Parallel()
				table, err := e.Run(experiments.Config{Seed: table1Seed})
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				table.Fprint(&b)
				rendered[i] = b.String()
			})
		}
	})
	if !ok {
		return
	}
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for i, e := range all {
		begin, end := "<!-- drbench:"+e.ID+" -->\n", "<!-- /drbench:"+e.ID+" -->"
		before, rest, found := strings.Cut(doc, begin)
		block, after, closed := strings.Cut(rest, end)
		switch {
		case !found || !closed:
			t.Errorf("%s: %s has no block %q … %q", e.ID, docPath, begin, end)
		case block != rendered[i] && !*update:
			t.Errorf("%s: the table in %s differs from the run (regenerate with -update):\nrun:\n%s\ndoc:\n%s",
				e.ID, docPath, rendered[i], block)
		default:
			doc = before + begin + rendered[i] + end + after
		}
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the %d tables of %s", len(all), docPath)
	}
}
