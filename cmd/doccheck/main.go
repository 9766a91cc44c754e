// Command doccheck fails (exit 1) when a package directory contains
// exported identifiers without godoc comments. It is the documentation
// gate run by `make doccheck` and CI's lint job over the packages whose
// API the design docs lean on:
//
//	go run ./cmd/doccheck internal/compile internal/sched internal/statevec internal/obs internal/ham
//
// A GenDecl's group comment covers all of its specs (the standard Go
// idiom for const blocks); test files are skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir> ...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		missing, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("doccheck: %d exported identifier(s) missing godoc\n", bad)
		os.Exit(1)
	}
}

// checkDir parses every non-test Go file in dir and reports exported
// top-level declarations (funcs, methods on exported receivers, types,
// consts, vars) that carry no doc comment.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if recv := receiverType(d); recv != "" {
						if !ast.IsExported(recv) {
							continue // method on an unexported type
						}
						report(d.Pos(), "method", recv+"."+d.Name.Name)
					} else {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Doc != nil {
						continue // group comment covers every spec
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, name := range s.Names {
								if name.IsExported() {
									report(name.Pos(), kindWord(d.Tok), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing, nil
}

// receiverType returns the bare receiver type name of a method, or ""
// for a plain function.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
