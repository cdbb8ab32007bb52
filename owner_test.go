package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTheSweepImportsSync pins the one-owner-per-world design: a
// simulated world (space, fault plan, engine, STM, allocator and
// observers) belongs to the one goroutine that runs it, so no package
// needs host synchronization except internal/sweep, whose workers run
// cells concurrently. A sync or sync/atomic import anywhere else means
// state shared between worlds, or a lock that nothing needs. The
// hostbench module and testdata fixtures are not part of the program.
func TestOnlyTheSweepImportsSync(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "hostbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if (p == "sync" || p == "sync/atomic") && filepath.ToSlash(filepath.Dir(path)) != "internal/sweep" {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no Go files to check")
	}
}
