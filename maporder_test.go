package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMapOrderedOutput guards the determinism of everything the CLIs,
// examples, figures and tables print: Go randomizes map iteration order, so
// a range over a map whose body prints, writes or draws from a random
// source produces different output (or different random draws) on every
// run. Walk a sorted key slice instead. The check type-checks each package
// under the output-producing directories and flags every such range
// statement, nested closures and loops included.
func TestNoMapOrderedOutput(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, root := range []string{"cmd", "examples", "internal/experiments", "internal/report"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files, err := parsePackage(fset, dir)
			if err != nil || len(files) == 0 {
				return err
			}
			info := &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(dir, fset, files, info); err != nil {
				return err
			}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						if call := orderSensitiveCall(info, rs.Body); call != "" {
							t.Errorf("%s: range over a map calls %s in map order",
								fset.Position(rs.Pos()), call)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// parsePackage parses the non-test Go files of dir.
func parsePackage(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		abs, err := filepath.Abs(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, abs, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// orderSensitiveCall returns the first call under body whose effect depends
// on the order it runs in — fmt.Print*/Fprint*, a Write* function or
// method, or a draw from a random source (math/rand, or a method of a type
// named RNG or Rand) — or "" when there is none.
func orderSensitiveCall(info *types.Info, body ast.Node) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		name := fn.Name()
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		recv := ""
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				recv = named.Obj().Name()
			}
		}
		switch {
		case pkg == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")),
			strings.HasPrefix(name, "Write"),
			pkg == "math/rand" || pkg == "math/rand/v2",
			recv == "RNG" || recv == "Rand":
			found = pkg + "." + name
			if recv != "" {
				found = recv + "." + name
			}
		}
		return true
	})
	return found
}
