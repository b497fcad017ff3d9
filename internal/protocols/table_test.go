package protocols_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/download"
	"repro/internal/conformance"
	"repro/internal/dst"
	"repro/internal/protocols"
	"repro/internal/storm"
)

var public = []download.Protocol{
	download.Naive, download.Crash1, download.CrashK, download.CrashKFast,
	download.Committee, download.TwoCycle, download.MultiCycle,
}

// TestPublicRows holds every download constant to a complete row: not a
// test hook, with a factory, Table 1 facts, both attackers, an envelope
// and a ladder of public rows that starts at the row and ends at naive.
func TestPublicRows(t *testing.T) {
	for _, p := range public {
		row, err := protocols.Lookup(string(p))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case row.TestHook:
			t.Errorf("%s: a download constant names a test hook", p)
		case row.New == nil:
			t.Errorf("%s: no factory", p)
		case row.FaultModel == "" || row.Resilience == "" || row.Query == "" || row.Theorem == "":
			t.Errorf("%s: incomplete Table 1 facts %+v", p, row)
		case row.Liar == nil || row.Equivocator == nil:
			t.Errorf("%s: no attacker", p)
		case row.Envelope.MaxQ == nil || row.Envelope.MaxMsgs == nil:
			t.Errorf("%s: no envelope", p)
		case len(row.Ladder) == 0 || row.Ladder[0] != row.Name || row.Ladder[len(row.Ladder)-1] != "naive":
			t.Errorf("%s: ladder %v must run from itself to naive", p, row.Ladder)
		}
		for _, rung := range row.Ladder {
			if r, err := protocols.Lookup(rung); err != nil || r.TestHook {
				t.Errorf("%s: ladder rung %q is no public row", p, rung)
			}
		}
	}
	var infos []download.Protocol
	for _, info := range download.Protocols() {
		infos = append(infos, info.Protocol)
	}
	// download.Protocols is also drstorm's "-protocols all" set.
	if fmt.Sprint(infos) != fmt.Sprint(public) {
		t.Errorf("download.Protocols() = %v, want %v", infos, public)
	}
}

// TestCommittedNamesResolve: every protocol a committed artifact names —
// a .dsr replay, a conformance fixture case, the pinned storm replay —
// has a row.
func TestCommittedNamesResolve(t *testing.T) {
	names := map[string]string{}
	files, err := filepath.Glob("../dst/testdata/replays/*.dsr")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed replays: %v", err)
	}
	for _, f := range files {
		r, err := dst.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		names[r.Protocol] = f
	}
	corpus, err := conformance.Load("../conformance/fixtures")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Results.Cases {
		names[c.Protocol] = c.Name
	}
	pinned, err := storm.PinnedReplay()
	if err != nil {
		t.Fatal(err)
	}
	names[pinned.Protocol] = "storm.PinnedReplay"
	for name, where := range names {
		if _, err := protocols.Lookup(name); err != nil {
			t.Errorf("%s: %v", where, err)
		}
	}
}

// TestFactoryRefusesTestHooks: a test hook has a row but is no download
// protocol, and Factory refuses it as it refuses an unknown name.
func TestFactoryRefusesTestHooks(t *testing.T) {
	for _, row := range protocols.Rows() {
		_, err := download.Protocol(row.Name).Factory()
		if row.TestHook {
			want := fmt.Sprintf("download: unknown protocol %q", row.Name)
			if err == nil || err.Error() != want {
				t.Errorf("%s: Factory error %v, want %q", row.Name, err, want)
			}
		} else if err != nil {
			t.Errorf("%s: %v", row.Name, err)
		}
	}
}

// wantBounds is conformance.FaultBound at n = 4, 6, 10, and
// conformance.BehaviorsFor, for every row's Info. A test hook has no
// Table 1 facts, so its Info is its name alone.
const wantBounds = `naive 2 3 5 [ crash silent spam liar]
crash1 1 1 1 [ crash crash-random]
crash1-legacy 2 3 5 [ crash silent spam liar]
crashk 3 4 7 [ crash crash-random]
crashk-fast 3 4 7 [ crash crash-random]
committee 1 2 4 [ crash-random silent spam liar equivocate]
committee-weak 2 3 5 [ crash silent spam liar]
twocycle 1 2 4 [ crash-random silent spam liar equivocate]
twocycle-weak 2 3 5 [ crash silent spam liar]
multicycle 1 2 4 [ crash-random silent spam liar equivocate]
multicycle-weak 2 3 5 [ crash silent spam liar]
`

func TestFaultBoundsPinned(t *testing.T) {
	infos := map[download.Protocol]download.Info{}
	for _, info := range download.Protocols() {
		infos[info.Protocol] = info
	}
	var b strings.Builder
	for _, row := range protocols.Rows() {
		info, ok := infos[download.Protocol(row.Name)]
		if !ok {
			info = download.Info{Protocol: download.Protocol(row.Name)}
		}
		fmt.Fprintf(&b, "%s %d %d %d %v\n", row.Name, conformance.FaultBound(info, 4),
			conformance.FaultBound(info, 6), conformance.FaultBound(info, 10), conformance.BehaviorsFor(info))
	}
	if b.String() != wantBounds {
		t.Errorf("fault bounds:\n%s\nwant:\n%s", b.String(), wantBounds)
	}
}

// TestDefaultLaddersPinned pins download.DefaultLadder for every row: a
// test hook or an unknown name gets naive alone.
func TestDefaultLaddersPinned(t *testing.T) {
	want := map[string]string{
		"naive": "[naive]", "crash1": "[crash1 crashk naive]", "crashk": "[crashk naive]",
		"crashk-fast": "[crashk-fast naive]", "committee": "[committee naive]",
		"twocycle": "[twocycle committee naive]", "multicycle": "[multicycle twocycle committee naive]",
		"crash1-legacy": "[naive]", "committee-weak": "[naive]", "twocycle-weak": "[naive]",
		"multicycle-weak": "[naive]", "nope": "[naive]",
	}
	for name, w := range want {
		if got := fmt.Sprint(download.DefaultLadder(download.Protocol(name))); got != w {
			t.Errorf("DefaultLadder(%s) = %s, want %s", name, got, w)
		}
	}
}

// TestLookup: names are unique and sorted by Names, and an unknown name
// is an error that lists them.
func TestLookup(t *testing.T) {
	names := protocols.Names()
	if len(names) != len(protocols.Rows()) {
		t.Fatalf("%d names for %d rows", len(names), len(protocols.Rows()))
	}
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("names not sorted and unique at %q", name)
		}
		if row, err := protocols.Lookup(name); err != nil || row.Name != name {
			t.Errorf("Lookup(%q) = %v, %v", name, row, err)
		}
	}
	if _, err := protocols.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "committee-weak") {
		t.Errorf("Lookup(nope) error %v does not list the names", err)
	}
}
