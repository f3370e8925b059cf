package pipesyn_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// reachAllow names the non-test code that no entry point links on
// purpose, each with the reason it stays. A key is a function, named as
// the scan reports it (pkg.F, pkg.T.M or pkg.(*T).M, pkg being the
// directory under internal/), or a whole package (internal/pkg). Only
// three kinds of entry belong here: a test oracle, code that only the
// figure and ablation benchmarks run, and a test-only package. An entry
// that an entry point links, or that names no function, fails the test.
var reachAllow = map[string]string{
	"expr.Expr.EvalC":   "test oracle: the tree-walking evaluator that pins the compiled programs bit for bit",
	"subadc.PowerCurve": "ablation: only BenchmarkSubADCPowerCurve runs it, for the m_i <= 4 sweep",
	"internal/testutil": "test helpers: only _test.go files import the package, by design",
}

// TestReachability is the reachability contract: every non-test function
// of the module is linked into at least one entry point. The entry points
// are the commands (cmd/*), the examples (examples/*) and pipebench
// (bench/, built from its own module). Each is built with inlining off
// for the module's packages, so the linker's dead-code pass alone decides
// which functions survive, and `go tool nm` lists them. internal/ is
// checked against all binaries together, each main package against its
// own binary. bench/'s own code is not checked.
//
// The scan is a lower bound: the linker keeps any exported method that
// an interface call could reach, so such a method passes unused.
//
// The subtest "examples" then runs every example binary: each must exit 0
// and print something, since the contract counts what they link as used.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every entry point; skipped under -short")
	}
	bin := t.TempDir()
	mains := buildEntryPoints(t, bin)

	decls := moduleFuncs(t)
	reached := map[string]bool{}
	for _, name := range append(mains, "pipebench") {
		for sym := range linkedFuncs(t, filepath.Join(bin, path.Base(name))) {
			if rest, ok := strings.CutPrefix(sym, "main."); !ok {
				reached[sym] = true
			} else if name != "pipebench" {
				reached[name+"."+rest] = true
			}
		}
	}

	var unlinked []string
	for name, pos := range decls {
		if !reached[name] && allowKey(name) == "" {
			unlinked = append(unlinked, name+" ("+pos+")")
		}
	}
	sort.Strings(unlinked)
	if len(unlinked) > 0 {
		t.Errorf("%d non-test functions linked into no entry point; delete them, move them into the tests that use them, or allowlist them in reachAllow with a reason:\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
	covered := map[string][]string{}
	for name := range decls {
		if key := allowKey(name); key != "" {
			covered[key] = append(covered[key], name)
		}
	}
	for key := range reachAllow {
		if len(covered[key]) == 0 {
			t.Errorf("reachAllow entry %q names no function; drop it", key)
		}
		for _, name := range covered[key] {
			if reached[name] {
				t.Errorf("reachAllow entry %q covers %s, which an entry point links; drop the entry", key, name)
			}
		}
	}

	t.Run("examples", func(t *testing.T) {
		for _, name := range mains {
			if !strings.HasPrefix(name, "examples/") {
				continue
			}
			t.Run(path.Base(name), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				cmd := exec.CommandContext(ctx, filepath.Join(bin, path.Base(name)))
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
				}
				if stdout.Len() == 0 {
					t.Fatalf("%s printed nothing", name)
				}
			})
		}
	})
}

// allowKey returns the reachAllow key that covers the function name, or
// "".
func allowKey(name string) string {
	if _, ok := reachAllow[name]; ok {
		return name
	}
	if strings.Contains(name, "/") {
		return "" // a main package's function
	}
	pkg := "internal/" + strings.SplitN(name, ".", 2)[0]
	if _, ok := reachAllow[pkg]; ok {
		return pkg
	}
	return ""
}

// buildEntryPoints builds every main package under cmd/ and examples/,
// and pipebench from bench/, into dir. Inlining is off for the module's
// packages only, so the standard library stays in the build cache. It
// returns the main packages' directories (cmd/x, examples/y), each built
// as dir/x; pipebench is dir/pipebench.
func buildEntryPoints(t *testing.T, dir string) []string {
	t.Helper()
	var mains []string
	for _, root := range []string{"cmd", "examples"} {
		ents, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				mains = append(mains, root+"/"+e.Name())
			}
		}
	}
	if len(mains) < 9 {
		t.Fatalf("found only %d main packages under cmd/ and examples/; is the test running from the module root?", len(mains))
	}
	const gcflags = "-gcflags=pipesyn/...=-l"
	args := []string{"build", gcflags, "-o", dir + string(filepath.Separator)}
	for _, m := range mains {
		args = append(args, "./"+m)
	}
	goCmd(t, ".", args...)
	goCmd(t, "bench", "build", gcflags, "-o", filepath.Join(dir, "pipebench"), ".")
	return mains
}

// goCmd runs the go command in dir and returns its stdout. A toolchain
// that cannot run fails the test: the contract is not optional.
func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out
}

// symSuffix matches what the compiler appends to a function's name for
// the code it generates inside it: closures (.func1, .func1.2), defer and
// go wrappers (.deferwrap1, .gowrap1), and numbered inits (init.0).
var symSuffix = regexp.MustCompile(`(\.(func|deferwrap|gowrap)?\d+)+$`)

// linkedFuncs lists the module's text symbols in a binary, named as
// moduleFuncs names them: pkg.F, pkg.T.M or pkg.(*T).M for internal/pkg,
// and main.F for the binary's own main package.
func linkedFuncs(t *testing.T, bin string) map[string]bool {
	t.Helper()
	syms := map[string]bool{}
	for _, line := range strings.Split(string(goCmd(t, ".", "tool", "nm", bin)), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[len(f)-2] != "T" && f[len(f)-2] != "t" {
			continue
		}
		sym := f[len(f)-1]
		if rest, ok := strings.CutPrefix(sym, "pipesyn/internal/"); ok {
			sym = rest
		} else if !strings.HasPrefix(sym, "main.") {
			continue
		}
		sym = strings.TrimSuffix(stripBrackets(sym), "-fm") // -fm: a method value
		syms[symSuffix.ReplaceAllString(sym, "")] = true
	}
	return syms
}

// stripBrackets drops generic instantiations: la.pivotLU[go.shape.float64]
// becomes la.pivotLU.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// moduleFuncs maps every non-test function declared in the module, nested
// modules (bench/) aside, to its file:line. Functions under internal/ are
// named pkg.F, pkg.T.M or pkg.(*T).M; those of a main package dir.F.
// Package init functions and main.main always run, so they are left out.
func moduleFuncs(t *testing.T) map[string]string {
	t.Helper()
	decls := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && p == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil // package pipesyn holds its doc comment only
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir = strings.TrimPrefix(dir, "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil && (fn.Name.Name == "init" || fn.Name.Name == "main" && f.Name.Name == "main") {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			decls[dir+"."+name] = fmt.Sprintf("%s:%d", p, fset.Position(fn.Pos()).Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("scan found only %d functions; is the test running from the module root?", len(decls))
	}
	return decls
}

// recvName renders a receiver type as the linker names it, without type
// parameters: T or (*T).
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(x.X) + ")"
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	}
	return e.(*ast.Ident).Name
}
