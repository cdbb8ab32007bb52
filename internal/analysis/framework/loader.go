package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked analysis unit: a package's source files
// (including its in-package _test.go files when present) together with
// the go/types objects resolved over them.
type Package struct {
	Path  string // import path (test-augmented variants use the base path)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// TestFiles marks which entries of Files came from _test.go sources;
	// analyzers that exempt tests (nodeterm) or that only read tests
	// (recordhygiene's coverage scan) key off it.
	TestFiles map[*ast.File]bool
	Types     *types.Package
	Info      *types.Info
	IllTyped  error // first type error, when the package does not check
}

// listEntry is the subset of `go list -json` fields the loader reads.
type listEntry struct {
	ImportPath string
	ForTest    string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var entries []listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Load type-checks the packages matched by patterns (run from dir),
// resolving imports through the gc export data that `go list -export`
// produces — no network, no module downloads, standard library only.
// Every matched package becomes one analysis unit; packages with
// in-package tests are loaded in their test-augmented form, and
// external _test packages become units of their own.
func Load(dir string, patterns ...string) ([]*Package, error) {
	modPath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,ForTest,Name,Dir,Export,Standard,GoFiles",
	}, patterns...)
	entries, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}

	// Export data by plain import path. Test-augmented variants carry a
	// bracketed suffix; strip it only when no plain entry exists, so
	// cross-package imports always resolve to the plain build.
	exports := map[string]string{}
	for _, e := range entries {
		if e.Export == "" {
			continue
		}
		path := e.ImportPath
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[:i]
		}
		if _, ok := exports[path]; !ok || !strings.Contains(e.ImportPath, " ") {
			exports[path] = e.Export
		}
	}

	// Pick analysis units among the module's own packages: the
	// test-augmented variant supersedes the plain one; synthesized
	// ".test" mains are skipped (their only file is generated).
	type unit struct{ entry listEntry }
	units := map[string]unit{} // display path -> chosen entry
	for _, e := range entries {
		if e.Standard || e.Dir == "" || len(e.GoFiles) == 0 {
			continue
		}
		base := e.ImportPath
		if i := strings.IndexByte(base, ' '); i >= 0 {
			base = base[:i]
		}
		if !strings.HasPrefix(base, modPath) || strings.HasSuffix(base, ".test") {
			continue
		}
		cur, ok := units[base]
		if !ok || e.ForTest != "" && cur.entry.ForTest == "" {
			units[base] = unit{entry: e}
		}
	}

	var pkgs []*Package
	for base, u := range units {
		pkg, err := check(base, u.entry, testExports(exports, entries, u.entry))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// testExports returns the export map a unit type-checks against. A
// test unit ("p [q.test]") sees the packages of its own test build —
// the test-augmented q that its external _test package imports, with
// the helpers export_test.go adds, and every dependency recompiled
// against it — in place of the plain builds.
func testExports(exports map[string]string, entries []listEntry, u listEntry) map[string]string {
	i := strings.Index(u.ImportPath, " [")
	if i < 0 {
		return exports
	}
	suffix := u.ImportPath[i:]
	out := make(map[string]string, len(exports))
	for path, file := range exports {
		out[path] = file
	}
	for _, e := range entries {
		if e.Export != "" && strings.HasSuffix(e.ImportPath, suffix) {
			out[strings.TrimSuffix(e.ImportPath, suffix)] = e.Export
		}
	}
	return out
}

// modulePath reads the module path governing dir.
func modulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m in %s: %w", dir, err)
	}
	return strings.TrimSpace(string(out)), nil
}

// exportImporter resolves import paths through export-data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// check parses and type-checks one unit.
func check(path string, e listEntry, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	pkg := &Package{
		Path:      path,
		Dir:       e.Dir,
		Fset:      fset,
		TestFiles: map[*ast.File]bool{},
	}
	for _, name := range e.GoFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(e.Dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", full, err)
		}
		pkg.Files = append(pkg.Files, f)
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles[f] = true
		}
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: exportImporter(fset, exports),
		Error: func(err error) {
			if pkg.IllTyped == nil {
				pkg.IllTyped = err
			}
		},
	}
	tpkg, err := conf.Check(path, fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && pkg.IllTyped == nil {
		pkg.IllTyped = err
	}
	return pkg, nil
}
