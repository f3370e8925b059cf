package pipesyn_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanPackages fails when a package under internal/ is imported
// by no non-test file outside itself, i.e. when only its own tests reach
// it. internal/testutil is exempt: only tests import it by design. Nested
// modules (bench/) are not scanned.
//
// The scope is whole-package orphans only. A package that some other
// package imports passes even if nothing but tests calls what it is
// imported for: this check would not have caught internal/poly (since
// deleted), because internal/expr imported it for a method only tests
// called.
func TestNoOrphanPackages(t *testing.T) {
	const module, exempt = "pipesyn", "pipesyn/internal/testutil"
	pkgs := map[string]bool{} // internal packages with a non-test file
	used := map[string]bool{} // internal packages imported from outside
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(pkg, module+"/internal/") {
			pkgs[pkg] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if ip, err := strconv.Unquote(imp.Path.Value); err == nil && ip != pkg {
				used[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for pkg := range pkgs {
		if !used[pkg] && pkg != exempt {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("packages no non-test file outside themselves imports: %v", orphans)
	}
	if len(pkgs) < 20 {
		t.Fatalf("scan found only %d internal packages; is the test running from the module root?", len(pkgs))
	}
}
