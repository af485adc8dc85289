package scanpower

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelsStartNoGoroutines keeps the ATPG scheduler the only
// goroutine source below the Engine: the measurement, Monte-Carlo and
// simulation packages run their batches serially, so their non-test
// code may hold no go statement and no sync.Pool scratch.
func TestKernelsStartNoGoroutines(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"obs", "core", "power", "leakage", "sim"} {
		paths, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "Pool" {
						t.Errorf("%s: sync.Pool", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
		if parsed == 0 {
			t.Errorf("no Go files in internal/%s", dir)
		}
	}
}
