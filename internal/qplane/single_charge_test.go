package qplane

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// runtimeFiles parses every non-test Go file of the runtime packages and
// hands it to visit. It fails the test when it finds fewer
// files than the packages hold today: a guard that scans nothing passes.
func runtimeFiles(t *testing.T, visit func(dir string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"../des", "../dst", "../netrt"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			visit(dir, fset, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// des 2 (des, heap), dst 7, netrt 10.
	if files < 19 {
		t.Fatalf("scanned only %d files: the runtime packages moved, update this guard", files)
	}
}

// TestChargeStaysSingle guards "the only place Q is charged": no
// non-test file of the runtimes — des, dst and the socket runtime netrt —
// may assign PeerStats.QueryBits; they charge through Plane.Begin or not
// at all.
func TestChargeStaysSingle(t *testing.T) {
	isQ := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name == "QueryBits"
		case *ast.Ident: // a composite-literal key
			return e.Name == "QueryBits"
		}
		return false
	}
	runtimeFiles(t, func(_ string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			case *ast.KeyValueExpr:
				lhs = []ast.Expr{n.Key}
			}
			for _, e := range lhs {
				if isQ(e) {
					t.Errorf("%s: QueryBits is written outside qplane.Begin", fset.Position(e.Pos()))
				}
			}
			return true
		})
	})
}

// TestDstHasNoContext guards "one event loop": package dst runs on des's
// engine and must not grow a sim.Context of its own again. Any method
// named like the context's verbs counts as one.
func TestDstHasNoContext(t *testing.T) {
	runtimeFiles(t, func(dir string, fset *token.FileSet, f *ast.File) {
		if dir != "../dst" {
			return
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			switch fn.Name.Name {
			case "Query", "Send", "Broadcast":
				t.Errorf("%s: method %s makes a second in-process sim.Context; schedule through des.RunChoices instead",
					fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	})
}

// TestHardenWrapsNoPeer guards "one warm path": the hardening supervisor
// hands its verified bits to the runtime (sim.Spec.Warm), whose plane
// serves them, and does not wrap a protocol to serve them itself.
// No non-test file of package harden may declare, as a method, a verb of
// sim.Context or a callback of sim.Peer; the names are read off the
// interfaces in package sim.
func TestHardenWrapsNoPeer(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../sim/sim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	verbs := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || (ts.Name.Name != "Context" && ts.Name.Name != "Peer") {
			return true
		}
		for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
			for _, name := range m.Names {
				verbs[name.Name] = "sim." + ts.Name.Name
			}
		}
		return false
	})
	if verbs["Query"] == "" || verbs["OnQueryReply"] == "" {
		t.Fatalf("read %d method names off sim.Context and sim.Peer: the interfaces moved, update this guard", len(verbs))
	}
	hardenFiles(t, fset, 0, func(f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && verbs[fn.Name.Name] != "" {
				t.Errorf("%s: method %s is a %s method; hand warm bits to the runtime through sim.Spec.Warm instead",
					fset.Position(fn.Pos()), fn.Name.Name, verbs[fn.Name.Name])
			}
		}
	})
}

// TestHardenImportsNoRuntime guards "one supervisor on every runtime":
// harden.Run runs each attempt through the runner its caller passes
// (harden.Config.Run), so no non-test file of package harden may import
// a runtime, des or the socket runtime netrt.
func TestHardenImportsNoRuntime(t *testing.T) {
	fset := token.NewFileSet()
	hardenFiles(t, fset, parser.ImportsOnly, func(f *ast.File) {
		for _, imp := range f.Imports {
			switch path := strings.Trim(imp.Path.Value, `"`); path {
			case "repro/internal/des", "repro/internal/netrt":
				t.Errorf("%s: package harden imports %s; take the runtime as harden.Config.Run instead",
					fset.Position(imp.Pos()), path)
			}
		}
	})
}

// TestNetrtConfigConfined guards "one spec on both runtimes": a socket
// run is a *sim.Spec and a netrt.Net (netrt.Runner), and netrt.Config is
// only the adapter the benchmark harness and cmd/drload still call. No Go
// file may name it outside those two, the non-test files of package netrt
// and the adapter's own test. Inside package netrt the type is the bare
// identifier Config.
func TestNetrtConfigConfined(t *testing.T) {
	allowed := func(rel string) bool {
		switch {
		case strings.HasPrefix(rel, "benchmark/"), strings.HasPrefix(rel, "cmd/drload/"),
			rel == "internal/netrt/config_test.go":
			return true
		}
		return strings.HasPrefix(rel, "internal/netrt/") && !strings.HasSuffix(rel, "_test.go")
	}
	fset := token.NewFileSet()
	files := goFiles(t, fset, "../..", 0, func(rel string) bool { return !allowed(rel) }, func(f *ast.File) {
		for _, pos := range namesNetrtConfig(f) {
			t.Errorf("%s: names netrt.Config; run a *sim.Spec through netrt.Runner instead", fset.Position(pos))
		}
	})
	if files < 100 {
		t.Fatalf("scanned only %d files of the module: the walk lost its root", files)
	}
}

// namesNetrtConfig returns where f names the type netrt.Config: as that
// selector, or, in package netrt, as the identifier Config that is no
// selector's, key's or field's name.
func namesNetrtConfig(f *ast.File) []token.Pos {
	inNetrt := f.Name.Name == "netrt"
	names := map[*ast.Ident]bool{}
	var at []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "netrt" && n.Sel.Name == "Config" {
				at = append(at, n.Pos())
			}
			names[n.Sel] = true
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				names[k] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				names[id] = true
			}
		case *ast.Ident:
			if inNetrt && n.Name == "Config" && !names[n] {
				at = append(at, n.Pos())
			}
		}
		return true
	})
	return at
}

// hardenFiles parses every non-test Go file of package harden in mode and
// hands it to visit, failing the test when it finds none.
func hardenFiles(t *testing.T, fset *token.FileSet, mode parser.Mode, visit func(f *ast.File)) {
	t.Helper()
	nonTest := func(rel string) bool { return !strings.HasSuffix(rel, "_test.go") }
	if goFiles(t, fset, "../harden", mode, nonTest, visit) == 0 {
		t.Fatal("scanned no file of package harden")
	}
}

// goFiles parses, in mode, every Go file under root whose path relative to
// root keep accepts, hands it to visit, and returns how many it parsed.
// Hidden directories are skipped.
func goFiles(t *testing.T, fset *token.FileSet, root string, mode parser.Mode, keep func(rel string) bool, visit func(f *ast.File)) int {
	t.Helper()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || !strings.HasSuffix(path, ".go") || !keep(filepath.ToSlash(rel)) {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		files++
		visit(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
