// Package txescape checks the publication discipline on simulated
// addresses: a mem.Addr produced inside a transaction body — a function
// literal taking a *stm.Tx — and stored to a variable declared outside
// that closure has escaped the transaction. Feeding the escaped address
// to a raw (non-transactional) operation later in the same function —
// Thread.Load/Store/CAS, Space access, an allocator Free — races the
// committing transaction: the raw side never consults the ownership
// records, so nothing orders it after the commit that published the
// address. That is exactly the publication/privatization hazard the
// paper's allocator discussion turns on (a raw free hands the block to
// the allocator, which may immediately reuse the words for in-band
// metadata).
//
// A call to Engine.Run between the escape and the raw use clears the
// taint: Run's return is a full barrier — every thread has finished, so
// the commit that published the address happened-before anything after
// it (harvest, validation and teardown read raw by design). The stm
// package itself is exempt, as in stmaccess: it implements the protocol
// the rule enforces.
package txescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/framework"
)

// Analyzer is the txescape checker.
var Analyzer = &framework.Analyzer{
	Name: "txescape",
	Doc:  "simulated addresses born in a tx closure must not reach raw operations without a barrier",
	Run:  run,
}

// rawOps maps (defining package suffix, type name) to the method names
// that consume an address outside the STM protocol.
var rawOps = map[[2]string]map[string]bool{
	{"internal/vtime", "Thread"}:    {"Load": true, "Store": true, "CAS": true},
	{"internal/mem", "Space"}:       {"Load": true, "Store": true, "CompareAndSwap": true},
	{"internal/alloc", "Allocator"}: {"Free": true},
}

func run(p *framework.Pass) error {
	if p.Pkg.Types.Name() == "stm" {
		return nil
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(p, fd.Body)
		}
	}
	return nil
}

// checkFunc analyzes one function body: collect the tx closures, the
// addresses escaping them, the barriers, then flag raw uses of escaped
// addresses not ordered by a barrier.
func checkFunc(p *framework.Pass, body *ast.BlockStmt) {
	var closures []*ast.FuncLit // tx closures, in source order
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && hasTxParam(p, lit) {
			closures = append(closures, lit)
		}
		return true
	})
	if len(closures) == 0 {
		return
	}

	// escapes: variable -> position after which its value is tainted
	// (the closure's end: the address exists only once the tx ran).
	escapes := map[types.Object]token.Pos{}
	for _, lit := range closures {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				obj := p.IdentObj(lhs)
				if obj == nil || !isAddr(obj.Type()) {
					continue
				}
				if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
					continue // declared inside the closure: dies with it
				}
				if _, seen := escapes[obj]; !seen {
					escapes[obj] = lit.End()
				}
			}
			return true
		})
	}
	if len(escapes) == 0 {
		return
	}

	// barriers: Engine.Run return positions. A raw use after one is
	// ordered after every commit inside it.
	var barriers []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, ok := methodRecv(p, call); ok &&
			framework.IsType(recv, "internal/vtime", "Engine") && name == "Run" {
			barriers = append(barriers, call.End())
		}
		return true
	})
	sort.Slice(barriers, func(i, j int) bool { return barriers[i] < barriers[j] })

	inTx := func(pos token.Pos) bool {
		for _, lit := range closures {
			if pos >= lit.Pos() && pos <= lit.End() {
				return true
			}
		}
		return false
	}
	ordered := func(escape, use token.Pos) bool {
		for _, b := range barriers {
			if b > escape && b < use {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inTx(call.Pos()) {
			return true
		}
		recv, name, ok := methodRecv(p, call)
		if !ok {
			return true
		}
		hit := false
		for key, methods := range rawOps {
			if framework.IsType(recv, key[0], key[1]) && methods[name] {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
		for _, arg := range call.Args {
			obj := p.IdentObj(arg)
			if obj == nil {
				continue
			}
			escape, tainted := escapes[obj]
			if !tainted || call.Pos() < escape || ordered(escape, call.Pos()) {
				continue
			}
			p.Reportf(call.Pos(),
				"address %q escaped a tx closure and reaches raw %s.%s with no barrier in between; the raw side races the publishing commit",
				obj.Name(), recv.Obj().Name(), name)
		}
		return true
	})
}

// hasTxParam reports whether the literal takes a *stm.Tx parameter.
func hasTxParam(p *framework.Pass, lit *ast.FuncLit) bool {
	if lit.Type.Params == nil {
		return false
	}
	for _, field := range lit.Type.Params.List {
		if named, ok := framework.Deref(p.Pkg.Info.TypeOf(field.Type)); ok && framework.IsType(named, "internal/stm", "Tx") {
			return true
		}
	}
	return false
}

// methodRecv resolves a call to (receiver named type, method name).
func methodRecv(p *framework.Pass, call *ast.CallExpr) (*types.Named, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	selection, ok := p.Pkg.Info.Selections[sel]
	if !ok {
		return nil, "", false
	}
	recv, ok := framework.Deref(selection.Recv())
	if !ok {
		return nil, "", false
	}
	return recv, sel.Sel.Name, true
}

// isAddr reports whether t is mem.Addr.
func isAddr(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && framework.IsType(n, "internal/mem", "Addr")
}
