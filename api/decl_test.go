package api_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseDir parses the non-test Go files of one package directory.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// jsonNames calls fn for every json-tagged field of st, nested anonymous
// structs included, with the field's wire name.
func jsonNames(st *ast.StructType, fn func(name string, pos token.Pos)) {
	ast.Inspect(st, func(n ast.Node) bool {
		f, ok := n.(*ast.Field)
		if !ok || f.Tag == nil {
			return true
		}
		tag, err := strconv.Unquote(f.Tag.Value)
		if err != nil {
			return true
		}
		name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
		if name != "" && name != "-" {
			fn(name, f.Pos())
		}
		return true
	})
}

// TestDocumentsDeclaredOnlyInAPI keeps the v1 wire schema in one place:
// no non-test struct in the server or the client may carry a json tag
// of a document type api owns (its own structs and the telemetry types
// it aliases). Such a struct is a second copy of a document that can
// drift from the one the other side encodes or decodes.
func TestDocumentsDeclaredOnlyInAPI(t *testing.T) {
	fset := token.NewFileSet()
	owner := map[string]string{} // json name → owning api type
	aliased := map[string]string{}
	for _, f := range parseDir(t, fset, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			switch typ := ts.Type.(type) {
			case *ast.StructType:
				jsonNames(typ, func(name string, _ token.Pos) { owner[name] = ts.Name.Name })
			case *ast.SelectorExpr:
				if x, ok := typ.X.(*ast.Ident); ok && ts.Assign.IsValid() && x.Name == "telemetry" {
					aliased[typ.Sel.Name] = ts.Name.Name
				}
			}
			return false
		})
	}
	for _, f := range parseDir(t, fset, filepath.Join("..", "internal", "telemetry")) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, isStruct := ts.Type.(*ast.StructType); isStruct && aliased[ts.Name.Name] != "" {
				jsonNames(st, func(name string, _ token.Pos) { owner[name] = aliased[ts.Name.Name] })
			}
			return false
		})
	}
	for _, want := range []string{"queue_capacity", "result_url", "p99_sec", "jobs_by_state", "span_id", "counters"} {
		if owner[want] == "" {
			t.Fatalf("api owns no document with a %q field; the scan is broken", want)
		}
	}

	for _, dir := range []string{filepath.Join("..", "client"), filepath.Join("..", "internal", "service")} {
		for _, f := range parseDir(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					jsonNames(st, func(name string, pos token.Pos) {
						if typ := owner[name]; typ != "" {
							t.Errorf("%s: json tag %q belongs to api.%s; decode into the api type instead of a copy",
								fset.Position(pos), name, typ)
						}
					})
					return false
				}
				return true
			})
		}
	}
}
