// Command reach lists the non-test functions under internal/ that no
// shipped binary links. It reads `go tool nm` output on stdin (the
// symbols of every binary, built with -gcflags=all=-l so nothing is
// inlined away), walks internal/ with go/ast, and prints each function
// whose symbol is absent with its line count, then the total. It is
// the walker behind scripts/reach.sh; run it from the module root.
//
// Left out of the walk: internal/proptest/... (the oracle stack, which
// only tests link), generic functions (their symbols carry type
// arguments) and empty-bodied methods (interface markers, which the
// linker drops when no interface call can reach them).
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "pds2"

type unreached struct {
	path  string
	line  int
	name  string
	lines int
}

func main() {
	linked, err := readSymbols(os.Stdin)
	if err == nil && len(linked) == 0 {
		err = fmt.Errorf("no %s/ text symbols on stdin", module)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	var out []unreached
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "proptest") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Type.TypeParams != nil {
				continue
			}
			if fn.Recv != nil && len(fn.Body.List) == 0 {
				continue
			}
			names, generic := symbols(pkg, fn)
			if generic || anyLinked(linked, names, fn.Name.Name == "init") {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			out = append(out, unreached{
				path:  path,
				line:  start.Line,
				name:  strings.TrimPrefix(names[0], module+"/internal/"),
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].path != out[j].path {
			return out[i].path < out[j].path
		}
		return out[i].line < out[j].line
	})
	total := 0
	for _, u := range out {
		fmt.Printf("%5d  %-48s %s:%d\n", u.lines, u.name, u.path, u.line)
		total += u.lines
	}
	fmt.Printf("reach: %d functions, %d lines that no binary links\n", len(out), total)
}

// readSymbols keeps the text symbols under the module path.
func readSymbols(r io.Reader) (map[string]bool, error) {
	linked := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		// "<addr> <size>? T <symbol>": the symbol is the last field,
		// the kind the one before it.
		f := strings.Fields(sc.Text())
		if len(f) < 3 || f[len(f)-2] != "T" {
			continue
		}
		if sym := f[len(f)-1]; strings.HasPrefix(sym, module+"/") {
			linked[sym] = true
		}
	}
	return linked, sc.Err()
}

// symbols returns the names the linker gives fn: a value method may
// survive only as the pointer wrapper, so both spellings count.
// generic reports a method on a generic type.
func symbols(pkg string, fn *ast.FuncDecl) (names []string, generic bool) {
	if fn.Recv == nil {
		return []string{pkg + "." + fn.Name.Name}, false
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	id, ok := t.(*ast.Ident)
	if !ok { // T[P] or T[P, Q]
		return nil, true
	}
	value := pkg + "." + id.Name + "." + fn.Name.Name
	pointer := pkg + ".(*" + id.Name + ")." + fn.Name.Name
	if ptr {
		return []string{pointer}, false
	}
	return []string{value, pointer}, false
}

// anyLinked reports whether a binary links one of names. init
// functions are numbered by the compiler (pkg.init.0, pkg.init.1, ...).
func anyLinked(linked map[string]bool, names []string, init bool) bool {
	for _, n := range names {
		if linked[n] {
			return true
		}
		if init {
			for s := range linked {
				if strings.HasPrefix(s, n+".") {
					return true
				}
			}
		}
	}
	return false
}
