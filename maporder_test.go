package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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
// statement, nested closures and loops included. Imports are read from the
// compiler's export data rather than type-checked from source.
func TestNoMapOrderedOutput(t *testing.T) {
	roots := []string{"cmd", "examples", "internal/experiments", "internal/report"}
	lookup, err := exportData(roots)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookup)
	for _, root := range roots {
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

// exportData builds the packages under roots and everything they import
// (go list -export, served from the build cache when it is warm) and
// returns a lookup of each import path's export data file.
func exportData(roots []string) (importer.Lookup, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for _, root := range roots {
		args = append(args, "./"+root+"/...")
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w\n%s", err, exit.Stderr)
		}
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		files[path] = file
	}
	return func(path string) (io.ReadCloser, error) {
		if files[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(files[path])
	}, nil
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
