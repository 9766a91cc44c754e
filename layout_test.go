package svsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"svsim/internal/core"
)

// goFiles parses every Go file under the given roots.
func goFiles(t *testing.T, mode parser.Mode, roots ...string) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "bench" || d.Name() == ".git") && path != root {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, mode)
			if err != nil {
				return err
			}
			files[path] = f
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestOnlyBenchImportsMpibase: the message-passing baseline is the mpi
// row of core's backend table. internal/mpibase survives only for the
// frozen benchmark under bench/, so no other package may import it.
func TestOnlyBenchImportsMpibase(t *testing.T) {
	for path, f := range goFiles(t, parser.ImportsOnly, ".") {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "svsim/internal/mpibase" {
				t.Errorf("%s imports %s; run the mpi row of core's backend table instead", path, p)
			}
		}
	}
}

// TestNoBackendNameComparisons: the backend table is the one list. No
// non-test file in internal/ or cmd/ compares a value against a backend
// name (== / != / a switch case) — it asks core.LookupBackend what it
// needs. Names as data (svchaos's pick lists) are not comparisons.
func TestNoBackendNameComparisons(t *testing.T) {
	names := map[string]bool{"remap": true}
	for _, n := range core.BackendNames(nil) {
		names[n] = true
	}
	isName := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, _ := strconv.Unquote(lit.Value)
		return names[s]
	}
	for path, f := range goFiles(t, 0, "internal", "cmd") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isName(n.X) || isName(n.Y)) {
					t.Errorf("%s: compares against a backend name; read core.LookupBackend instead", path)
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isName(e) {
						t.Errorf("%s: switches on a backend name; read core.LookupBackend instead", path)
					}
				}
			}
			return true
		})
	}
}
