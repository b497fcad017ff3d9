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

// TestChargeStaysSingle guards "the only place Q is charged": no
// non-test file of the in-process runtimes may assign PeerStats.QueryBits
// — they charge through Plane.Begin or not at all.
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
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"../des", "../dst", "../live"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
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
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 8 {
		t.Fatalf("scanned only %d files: the runtime packages moved, update this guard", files)
	}
}
