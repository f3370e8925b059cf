package pipesyn_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fieldAllow names the exported struct fields under internal/ that no
// non-test code sets on purpose, each with the reason it stays. A key is
// pkg.Type.Field, pkg being the directory under internal/. An entry
// that non-test code sets, or that names no field, fails the test.
var fieldAllow = map[string]string{
	"sim.TranOpts.ClockPeriod":  "clock path: mdac's two-phase charge-transfer tests and sim's switch tests clock a switched-capacitor circuit",
	"sim.TranOpts.NonOverlap":   "clock path: mdac's two-phase charge-transfer tests and sim's switch tests clock a switched-capacitor circuit",
	"sim.ACOpts.SwitchPhase":    "clock path: sim's TestACSwitchPhaseMatters analyzes each switch phase",
	"sim.NoiseOpts.SwitchPhase": "clock path: sim's kT/C noise test analyzes one switch phase",
	"dpi.Options.SwitchPhase":   "clock path: dpi's switch test binds each switch phase",
	"service.Config.EvalHook":   "fault injection: the service and cluster tests stall, fail and panic evaluations through it",
}

// TestFieldReachability is the reachability contract for struct fields:
// every exported field of a struct type declared under internal/ is set
// by the non-test code of the module or of pipebench (bench/). A field
// is set where that code assigns it (alone, or inside a selector or
// index chain: src.Pulse.V1 = v sets Pulse too), increments or
// decrements it, takes its address (with & or by calling a
// pointer-receiver method on it), or names it in a keyed composite
// literal; an unkeyed literal sets every field. A field with a struct
// tag counts as set, since a decoder fills it. An option that no entry
// point can set is a knob only tests turn.
//
// The packages are type-checked from source, so a field is one
// *types.Var wherever it is used; only the standard library is imported
// from export data.
func TestFieldReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and pipebench; skipped under -short")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fs := newFieldScan(t, root)
	fs.load(t, ".")
	fs.load(t, "bench")
	if len(fs.fields) < 200 {
		t.Fatalf("scan found only %d exported fields; is the test running from the module root?", len(fs.fields))
	}

	var unset []string
	named := map[string]bool{}
	for v, f := range fs.fields {
		named[f.name] = true
		_, allowed := fieldAllow[f.name]
		switch {
		case fs.set[v] && allowed:
			t.Errorf("fieldAllow entry %q names a field that non-test code sets; drop the entry", f.name)
		case !fs.set[v] && !allowed:
			unset = append(unset, f.name+" ("+f.pos+")")
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d exported fields that no non-test code sets; delete or unexport them, or allowlist them in fieldAllow with a reason:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
	for name := range fieldAllow {
		if !named[name] {
			t.Errorf("fieldAllow entry %q names no field; drop it", name)
		}
	}
}

// checkedField is an exported field under internal/: its name as
// fieldAllow keys it, and its file:line.
type checkedField struct{ name, pos string }

// fieldScan type-checks module packages and records which fields their
// non-test code sets. Every map is keyed by a field's origin, so a field
// of a generic type is one entry for all its instantiations.
type fieldScan struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	export map[string]string // standard-library import path → export data
	pkgs   map[string]*types.Package
	fields map[*types.Var]checkedField
	set    map[*types.Var]bool
}

func newFieldScan(t *testing.T, root string) *fieldScan {
	fs := &fieldScan{
		root:   root,
		fset:   token.NewFileSet(),
		export: map[string]string{},
		pkgs:   map[string]*types.Package{},
		fields: map[*types.Var]checkedField{},
		set:    map[*types.Var]bool{},
	}
	fs.std = importer.ForCompiler(fs.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := fs.export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return fs
}

// Import serves module packages from the source checks and the standard
// library from export data.
func (fs *fieldScan) Import(path string) (*types.Package, error) {
	if p := fs.pkgs[path]; p != nil {
		return p, nil
	}
	return fs.std.Import(path)
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
}

// load lists the packages of the module in dir with their dependencies,
// in dependency order, and type-checks each module package not yet
// checked.
func (fs *fieldScan) load(t *testing.T, dir string) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(goCmd(t, dir, "list", "-deps", "-export", "-json", "./...")))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			fs.export[p.ImportPath] = p.Export
		} else if fs.pkgs[p.ImportPath] == nil {
			fs.check(t, p)
		}
	}
}

// check type-checks one module package's non-test files, records the
// exported struct fields it declares when it lives under internal/, and
// scans its code for field sets.
func (fs *fieldScan) check(t *testing.T, p listedPackage) {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fs.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: fs}).Check(p.ImportPath, fs.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", p.ImportPath, err)
	}
	fs.pkgs[p.ImportPath] = pkg
	if rest, ok := strings.CutPrefix(p.ImportPath, "pipesyn/internal/"); ok {
		for _, f := range files {
			fs.declared(f, rest, info)
		}
	}
	for _, f := range files {
		fs.scanSets(f, info)
	}
}

// declared records the exported, untagged fields of every named struct
// type declared in f, named prefix.Type.Field.
func (fs *fieldScan) declared(f *ast.File, prefix string, info *types.Info) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := info.TypeOf(ts.Type).(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			if v := st.Field(i); v.Exported() && st.Tag(i) == "" {
				pos := fs.fset.Position(v.Pos())
				file := filepath.ToSlash(strings.TrimPrefix(pos.Filename, fs.root+string(filepath.Separator)))
				fs.fields[v.Origin()] = checkedField{prefix + "." + ts.Name.Name + "." + v.Name(), fmt.Sprintf("%s:%d", file, pos.Line)}
			}
		}
		return true
	})
}

// scanSets marks every field that f's code sets.
func (fs *fieldScan) scanSets(f *ast.File, info *types.Info) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				fs.markChain(lhs, info)
			}
		case *ast.IncDecStmt:
			fs.markChain(x.X, info)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e != nil {
						fs.markChain(e, info)
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				fs.markChain(x.X, info)
			}
		case *ast.SelectorExpr:
			fs.markPointerCall(x, info)
		case *ast.CompositeLit:
			fs.markLiteral(x, info)
		}
		return true
	})
}

// markChain marks the fields that e selects down its selector, index and
// dereference chain: assigning to (or taking the address of) x.a[i].b
// sets b and a.
func (fs *fieldScan) markChain(e ast.Expr, info *types.Info) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				vs, _ := selectedFields(sel)
				for _, v := range vs {
					fs.set[v.Origin()] = true
				}
			}
			e = x.X
		default:
			return
		}
	}
}

// markPointerCall marks the operand of a pointer-receiver method call
// whose receiver is not already a pointer: the call takes the operand's
// address (m.JobsAccepted.Add(1) sets JobsAccepted). Embedded fields the
// method is promoted through count too, back to the last pointer on the
// path.
func (fs *fieldScan) markPointerCall(x *ast.SelectorExpr, info *types.Info) {
	sel := info.Selections[x]
	if sel == nil || sel.Kind() != types.MethodVal {
		return
	}
	recv := sel.Obj().Type().(*types.Signature).Recv()
	if _, ptr := recv.Type().(*types.Pointer); !ptr {
		return
	}
	embedded, fromOperand := selectedFields(sel)
	if len(embedded) > 0 {
		if _, ptr := embedded[len(embedded)-1].Type().Underlying().(*types.Pointer); ptr {
			return
		}
	} else if _, ptr := sel.Recv().Underlying().(*types.Pointer); ptr {
		return
	}
	for _, v := range embedded {
		fs.set[v.Origin()] = true
	}
	if fromOperand {
		fs.markChain(x.X, info)
	}
}

// selectedFields returns the fields a selection passes through (the
// embedded fields, then the selected field itself for a field
// selection), from the last pointer on the path on. fromOperand reports
// that no pointer lies on the path, so the operand itself is reached.
func selectedFields(sel *types.Selection) (vs []*types.Var, fromOperand bool) {
	t := sel.Recv()
	fromOperand = true
	idx := sel.Index()
	if sel.Kind() != types.FieldVal {
		idx = idx[:len(idx)-1]
	}
	for _, i := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t, vs, fromOperand = p.Elem(), nil, false
		}
		v := t.Underlying().(*types.Struct).Field(i)
		vs = append(vs, v)
		t = v.Type()
	}
	return vs, fromOperand
}

// markLiteral marks the fields a struct literal names, or all of them for
// an unkeyed one.
func (fs *fieldScan) markLiteral(lit *ast.CompositeLit, info *types.Info) {
	t := info.TypeOf(lit)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
		for i := 0; i < st.NumFields(); i++ {
			fs.set[st.Field(i).Origin()] = true
		}
		return
	}
	for _, e := range lit.Elts {
		if v, ok := info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
			fs.set[v.Origin()] = true
		}
	}
}
