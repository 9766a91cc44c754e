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
			// bench/run.sh's build (binary and Go caches) and work dir.
			if d.IsDir() && (path == filepath.Join("bench", "bin") || path == filepath.Join("bench", "out")) {
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

// exportAllowlist names the exported internal/ functions and methods
// that stay without a production caller, each with why. A key is
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under
// internal/; "pkg.Type.*" covers every method of Type.
var exportAllowlist = map[string]string{
	"gate.NewCS":       "Table 1 constructor; QASM programs reach cs through the kind table",
	"gate.NewCSDG":     "Table 1 constructor; QASM programs reach csdg through the kind table",
	"gate.NewCT":       "Table 1 constructor; QASM programs reach ct through the kind table",
	"gate.NewCTDG":     "Table 1 constructor; QASM programs reach ctdg through the kind table",
	"gate.NewSXDG":     "Table 1 constructor; QASM programs reach sxdg through the kind table",
	"gate.NewCSWAP":    "Table 1 constructor; QASM programs reach cswap through the kind table",
	"gate.NewC3SQRTX":  "Table 1 constructor; QASM programs reach c3sqrtx through the kind table",
	"qir.NewSimulator": "Table 2: the QIR runtime a Q# program binds to (§3.3)",
	"qir.Simulator.*":  "Table 2: the QIR verbs a Q# program calls (§3.3)",

	"core.RunFailure.Unwrap": "called through errors.Is/As",
	"pgas.AbortError.Unwrap": "called through errors.Is/As",
	"pgas.RunError.Unwrap":   "called through errors.Is/As",

	"density.FromState":             "the density oracle ROADMAP item 2(b) checks measured programs against",
	"density.Density.ApplyCircuit":  "the density oracle ROADMAP item 2(b) checks measured programs against",
	"density.Density.AmplitudeDamp": "a Kraus channel of item 2(b)'s density oracle",
	"density.Density.Dephase":       "a Kraus channel of item 2(b)'s density oracle",
	"gate.Matrix.EqualUpTo":         "oracle of the gate, circuit and fusion tests",
	"fusion.Span.Crosses":           "oracle of the fusion, compile and core tests: no fused span straddles a remap",
	"obs.ParseOpenMetrics":          "oracle of the obs, core and e2e tests: every metrics.om parses strictly",
	"batch.Runner.EnergySweep":      "TestCountersPinned's vqe_h2_sweep64 cell; ROADMAP item 1(c)'s sweep seam",
	"circuit.Circuit.Inverse":       "ROADMAP item 2(c)'s C·C† relation",
	"vqa.GradientDescentVQE":        "ROADMAP item 7's gate-count target",
}

// packageAllowlist names the internal/ packages that stay without a
// production importer, each with why.
var packageAllowlist = map[string]string{
	"qir":        "Table 2: the QIR runtime a Q# program binds to (§3.3), which no Go code imports",
	"stabilizer": "the Clifford oracle ROADMAP item 2(b) checks n = 20–24 fleets against",
}

// TestExportsHaveProductionCallers: every exported top-level function or
// method declared in a non-test file under internal/ is referenced by
// some non-test file of the system (internal/, cmd/, examples/, bench/
// or the repo root) — a .Name selector anywhere, or a bare Name inside
// its own package — or is on exportAllowlist. An export only tests call
// is deleted with its tests or moved into its package's _test.go. A
// stale allowlist entry (the export is gone or has a caller) and an
// entry without a reason fail too. bench/ is walked here because the
// root module's tests never build it. Names are matched, not objects,
// so a package no production file imports could pass on names others
// share: every internal/ package must also be imported by a non-test
// file outside it, or be on packageAllowlist (by the same rules).
func TestExportsHaveProductionCallers(t *testing.T) {
	type export struct{ key, dir, name, path string }
	var exports []export
	selected := map[string]bool{}        // every .Name selector
	bare := map[string]map[string]bool{} // directory -> bare names
	pkgs := map[string]string{}          // internal/ package -> a file of it
	imported := map[string]bool{}        // internal/ packages imported from outside
	for path, f := range goFiles(t, 0, ".", "bench") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.Dir(path)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(p, "svsim/internal/"); ok && filepath.ToSlash(dir) != "internal/"+pkg {
				imported[pkg] = true
			}
		}
		notBare := map[*ast.Ident]bool{} // declared names and selectors' Sel
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(dir), "internal/"); ok {
			pkgs[pkg] = path
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				notBare[fd.Name] = true
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if ix, ok := recv.(*ast.IndexExpr); ok { // a generic receiver
						recv = ix.X
					}
					key = pkg + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
				}
				exports = append(exports, export{key, dir, fd.Name.Name, path})
			}
		}
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				notBare[n.Sel] = true
			case *ast.Ident:
				if !notBare[n] {
					bare[dir][n.Name] = true
				}
			}
			return true
		})
	}
	matched := map[string]bool{} // allowlist entries an export without a caller matched
	for _, e := range exports {
		if selected[e.name] || bare[e.dir][e.name] {
			continue
		}
		entry := e.key
		if _, ok := exportAllowlist[entry]; !ok {
			entry = e.key[:strings.LastIndex(e.key, ".")] + ".*"
		}
		if _, ok := exportAllowlist[entry]; !ok {
			t.Errorf("%s: %s has no production caller; delete it with its tests, or move it into its package's _test.go", e.path, e.key)
			continue
		}
		matched[entry] = true
	}
	for entry, reason := range exportAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exportAllowlist: %s has no reason", entry)
		}
		if !matched[entry] {
			t.Errorf("exportAllowlist: %s matches no export without a production caller (gone, or called now); drop it", entry)
		}
	}
	for pkg, path := range pkgs {
		if _, ok := packageAllowlist[pkg]; !imported[pkg] && !ok {
			t.Errorf("%s: package internal/%s has no production importer; delete it, or import it where it is used", path, pkg)
		}
	}
	for pkg, reason := range packageAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("packageAllowlist: %s has no reason", pkg)
		}
		if _, ok := pkgs[pkg]; !ok || imported[pkg] {
			t.Errorf("packageAllowlist: internal/%s is gone or imported now; drop it", pkg)
		}
	}
}
