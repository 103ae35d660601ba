// Package api holds the checked-in public surface of the repository,
// api/surface.txt, and the test that regenerates it from source.
//
// The surface is what a caller of the MODis system can touch: the
// exported Go API of the four public packages, the command-line flags
// of the three user-facing commands and the metric names the daemon
// and the proxy export. A change that grows or shrinks it must edit
// the file in the same commit, so the file's diff is the change's
// surface delta. After such a change, regenerate the file with
//
//	go test ./api -run TestSurface | sed -n '/^--- begin/,/^--- end/{//!p}' > api/surface.txt.new
//	mv api/surface.txt.new api/surface.txt
package api

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The surface's sources, relative to the repository root.
var (
	surfacePackages = []string{"modis", "modis/serve", "modis/proxy", "modis/workload"}
	surfaceCommands = []string{"cmd/modis", "cmd/modisd", "cmd/modisproxy"}
	// metricRoot is walked for metric names: every string literal in
	// non-test code that is a whole modis_* or modisproxy_* name.
	metricRoot = "modis"
	// servingDoc must mention every flag of the serving commands as
	// -name.
	servingDoc      = "docs/serving.md"
	servingCommands = []string{"cmd/modisd", "cmd/modisproxy"}
)

var metricName = regexp.MustCompile(`^modis(proxy)?_[a-z0-9_]+$`)

func TestSurface(t *testing.T) {
	lines, err := surface("..")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", servingDoc))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		for _, cmd := range servingCommands {
			rest, ok := strings.CutPrefix(line, "flag "+cmd+", -")
			if !ok {
				continue
			}
			name := strings.Fields(rest)[0]
			mention := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`)
			if !mention.Match(doc) {
				t.Errorf("%s flag -%s is not mentioned in %s", cmd, name, servingDoc)
			}
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	raw, err := os.ReadFile("surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) == got {
		return
	}
	t.Errorf("api/surface.txt differs from the source (- file, + source):\n%s",
		diffLines(strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), lines))
	fmt.Printf("--- begin api/surface.txt\n%s--- end api/surface.txt\n", got)
}

// surface lists the repository's public surface, one sorted line per
// entry:
//
//	pkg <path>, func|type|const|var|method ...   exported Go API
//	pkg <path>, type <T> struct, <Field> <type> [tag]   exported fields
//	flag <cmd>, -<name> <kind> <default>
//	metric <name>
func surface(root string) ([]string, error) {
	var lines []string
	for _, dir := range surfacePackages {
		files, err := parseDir(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		lines = append(lines, apiLines(dir, files)...)
	}
	for _, dir := range surfaceCommands {
		files, err := parseDir(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		for _, f := range flagDefs(files) {
			lines = append(lines, fmt.Sprintf("flag %s, -%s %s %s", dir, f.name, f.kind, f.def))
		}
	}
	metrics := map[string]bool{}
	err := filepath.WalkDir(filepath.Join(root, metricRoot), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		files, err := parseDir(path)
		if err != nil {
			return err
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && metricName.MatchString(s) {
						metrics[s] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for m := range metrics {
		lines = append(lines, "metric "+m)
	}
	sort.Strings(lines)
	return lines, nil
}

// parseDir parses the non-test Go files of one directory, sorted by
// name.
func parseDir(dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// apiLines lists one package's exported declarations.
func apiLines(dir string, files []*ast.File) []string {
	pkg := "pkg " + dir + ", "
	exportedType := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, s := range gd.Specs {
					if ts := s.(*ast.TypeSpec); ts.Name.IsExported() {
						exportedType[ts.Name.Name] = true
					}
				}
			}
		}
	}
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, pkg+"func "+d.Name.Name+signature(d.Type))
					continue
				}
				recv := expr(d.Recv.List[0].Type)
				if exportedType[strings.TrimPrefix(recv, "*")] {
					out = append(out, pkg+"method ("+recv+") "+d.Name.Name+signature(d.Type))
				}
			case *ast.GenDecl:
				out = append(out, genLines(pkg, d)...)
			}
		}
	}
	return out
}

// genLines lists the exported names of one const, var or type
// declaration.
func genLines(pkg string, d *ast.GenDecl) []string {
	var out []string
	switch d.Tok {
	case token.TYPE:
		for _, s := range d.Specs {
			ts := s.(*ast.TypeSpec)
			if !ts.Name.IsExported() {
				continue
			}
			name := ts.Name.Name
			switch tt := ts.Type.(type) {
			case *ast.StructType:
				out = append(out, pkg+"type "+name+" struct")
				for _, fl := range tt.Fields.List {
					names := fl.Names
					if len(names) == 0 { // embedded: the field is named by its type
						base := strings.TrimPrefix(expr(fl.Type), "*")
						names = []*ast.Ident{ast.NewIdent(base[strings.LastIndex(base, ".")+1:])}
					}
					for _, n := range names {
						if !n.IsExported() {
							continue
						}
						line := pkg + "type " + name + " struct, " + n.Name + " " + expr(fl.Type)
						if fl.Tag != nil {
							line += " " + fl.Tag.Value
						}
						out = append(out, line)
					}
				}
			case *ast.InterfaceType:
				out = append(out, pkg+"type "+name+" interface")
				for _, m := range tt.Methods.List {
					ft, ok := m.Type.(*ast.FuncType)
					if !ok {
						out = append(out, pkg+"type "+name+" interface, "+expr(m.Type))
						continue
					}
					for _, n := range m.Names {
						if n.IsExported() {
							out = append(out, pkg+"method ("+name+") "+n.Name+signature(ft))
						}
					}
				}
			default:
				out = append(out, pkg+"type "+name+" "+expr(ts.Type))
			}
		}
	case token.CONST, token.VAR:
		kind := d.Tok.String()
		var typ ast.Expr
		for _, s := range d.Specs {
			vs := s.(*ast.ValueSpec)
			if vs.Type != nil || len(vs.Values) > 0 {
				typ = vs.Type // an implicit repetition keeps the last spec's type
			}
			for i, n := range vs.Names {
				if !n.IsExported() {
					continue
				}
				line := pkg + kind + " " + n.Name
				if typ != nil {
					line += " " + expr(typ)
				}
				if i < len(vs.Values) {
					line += " = " + expr(vs.Values[i])
				}
				out = append(out, line)
			}
		}
	}
	return out
}

// signature prints a function type without its "func" keyword.
func signature(ft *ast.FuncType) string {
	return strings.TrimPrefix(expr(ft), "func")
}

// expr prints an expression on one line, with the parameter names of
// every function type in it dropped, so a renamed parameter is not a
// surface change.
func expr(e ast.Expr) string {
	ast.Inspect(e, func(n ast.Node) bool {
		if ft, ok := n.(*ast.FuncType); ok {
			unname(ft.Params)
			unname(ft.Results)
		}
		return true
	})
	// An empty file set places every node on one line.
	var b bytes.Buffer
	printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}

// unname replaces each named field of a parameter list by one unnamed
// field per name.
func unname(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	var list []*ast.Field
	for _, f := range fl.List {
		for range max(1, len(f.Names)) {
			list = append(list, &ast.Field{Type: f.Type})
		}
	}
	fl.List = list
}

type flagDef struct{ name, kind, def string }

// flagDefs finds every flag.Kind(name, default, usage) and
// flag.KindVar(p, name, default, usage) call.
func flagDefs(files []*ast.File) []flagDef {
	var out []flagDef
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			kind, args := sel.Sel.Name, call.Args
			if strings.HasSuffix(kind, "Var") && len(args) == 4 {
				kind, args = strings.TrimSuffix(kind, "Var"), args[1:]
			}
			if len(args) != 3 {
				return true
			}
			lit, ok := args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			out = append(out, flagDef{name: name, kind: strings.ToLower(kind), def: expr(args[1])})
			return true
		})
	}
	return out
}

// diffLines lists the lines only in a (prefixed "-") and only in b
// (prefixed "+"); both are sorted.
func diffLines(a, b []string) string {
	var out []string
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, "- "+a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, "+ "+b[j])
			j++
		default:
			i++
			j++
		}
	}
	return strings.Join(out, "\n")
}
