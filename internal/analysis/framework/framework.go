// Package framework is a small, dependency-free harness for static
// analyzers in the spirit of golang.org/x/tools/go/analysis: an
// Analyzer inspects one type-checked package and reports diagnostics.
// The x/tools module is deliberately not used — the repository builds
// offline from the standard library alone — so the framework supplies
// the three pieces tmvet needs: a package loader driven by `go list
// -export` (loader.go), the Analyzer/Pass/Diagnostic surface (this
// file), and a fixture runner for analyzer self-tests (fixture.go).
//
// Suppression follows the repository's annotation grammar:
//
//	//tmvet:allow <analyzer>[,<analyzer>...]: <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory: an annotation without one is itself reported, so every
// suppressed finding carries its justification in the source.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string // short lower-case identifier used in findings and allow annotations
	Doc  string // one-paragraph description of the invariant
	Run  func(*Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding. Allowed findings — suppressed by a
// //tmvet:allow annotation — stay in the result so callers can report
// suppression status (tmvet -json); they never gate.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Allowed  bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowRe matches the annotation grammar; the reason group must be
// non-empty after trimming.
var allowRe = regexp.MustCompile(`^//tmvet:allow\s+([a-z][a-z0-9_,\s]*):\s*(.*)$`)

// allowEntry is one analyzer name in one annotation; used tracks
// whether any diagnostic was suppressed by it, so unused entries can be
// reported as stale.
type allowEntry struct {
	pos  token.Position
	used bool
}

// allowSet maps file -> line -> analyzer names allowed on that line.
type allowSet map[string]map[int]map[string]*allowEntry

// collectAllows scans a package's comments for allow annotations,
// returning the suppression set plus diagnostics for malformed
// annotations (missing reason, unparsable grammar).
func collectAllows(pkg *Package) (allowSet, []Diagnostic) {
	allows := allowSet{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//tmvet:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "tmvet",
						Message:  "malformed annotation: want //tmvet:allow <analyzer>: <reason> with a non-empty reason",
					})
					continue
				}
				file := allows[pos.Filename]
				if file == nil {
					file = map[int]map[string]*allowEntry{}
					allows[pos.Filename] = file
				}
				names := file[pos.Line]
				if names == nil {
					names = map[string]*allowEntry{}
					file[pos.Line] = names
				}
				for _, name := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(name)] = &allowEntry{pos: pos}
				}
			}
		}
	}
	return allows, bad
}

// allowed reports whether a diagnostic is suppressed: an annotation for
// its analyzer sits on the same line or the line directly above. A
// match marks the entry used, which is what keeps it off the stale
// list.
func (a allowSet) allowed(d Diagnostic) bool {
	file := a[d.Pos.Filename]
	if file == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if names := file[line]; names != nil && names[d.Analyzer] != nil {
			names[d.Analyzer].used = true
			return true
		}
	}
	return false
}

// stale reports annotation entries for analyzers in ran that suppressed
// no finding: the hazard they once marked is gone (or moved), so the
// annotation now hides nothing and would mask a future regression.
// Entries naming analyzers outside ran are skipped — a partial -run
// cannot tell whether the missing analyzer would still fire.
func (a allowSet) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range a {
		for _, names := range lines {
			for name, e := range names {
				if ran[name] && !e.used {
					out = append(out, Diagnostic{
						Pos:      e.pos,
						Analyzer: "tmvet",
						Message:  fmt.Sprintf("stale suppression: %s reports no finding here; delete the //tmvet:allow annotation", name),
					})
				}
			}
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position. Findings matched by an allow annotation
// come back with Allowed set instead of being dropped, so callers can
// surface suppression status; annotations that suppressed nothing for
// an analyzer that ran are themselves findings (stale suppression, not
// Allowed — tmvet's own diagnostics are never suppressible). Packages
// that failed to type-check contribute a finding instead of being
// analyzed: an unparsable repository must fail the gate loudly, not
// pass it silently.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		if pkg.IllTyped != nil {
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: pkg.Dir},
				Analyzer: "tmvet",
				Message:  fmt.Sprintf("package %s does not type-check: %v", pkg.Path, pkg.IllTyped),
			})
			continue
		}
		allows, bad := collectAllows(pkg)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				d.Allowed = allows.allowed(d)
				out = append(out, d)
			}
		}
		out = append(out, allows.stale(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// Inspect walks every file of the pass's package in source order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// IdentObj resolves an expression to the object of a plain identifier,
// unwrapping parentheses.
func (p *Pass) IdentObj(e ast.Expr) types.Object {
	for {
		if pe, ok := e.(*ast.ParenExpr); ok {
			e = pe.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// Deref unwraps one level of pointer and reports the named type.
func Deref(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// IsType reports whether the named type is pkgSuffix.name.
func IsType(n *types.Named, pkgSuffix, name string) bool {
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgSuffix) && obj.Name() == name
}
