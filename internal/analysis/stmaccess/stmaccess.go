// Package stmaccess checks the STM isolation invariant: inside a
// transaction body — a function literal taking a *stm.Tx — every access
// to the simulated heap must go through the transaction (tx.Load,
// tx.Store, tx.Malloc, tx.Free). Raw reads through vtime.Thread or
// mem.Space, or allocator calls that bypass the transactional wrappers,
// would dodge the ownership-record protocol: no conflict detection, no
// rollback, no sanitizer check — exactly the class of bug the paper's
// privatization discussion warns about. The Tx handle must also not
// escape its closure: a stored Tx outlives its validity the moment the
// transaction commits or aborts.
//
// The stm package itself is exempt — it implements the protocol the
// rule enforces.
package stmaccess

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the stmaccess checker.
var Analyzer = &framework.Analyzer{
	Name: "stmaccess",
	Doc:  "inside tx closures, heap access must go through the Tx; the Tx must not escape",
	Run:  run,
}

// forbidden maps (defining package suffix, type name) to the method
// names that bypass the transaction.
var forbidden = map[[2]string]map[string]bool{
	{"internal/vtime", "Thread"}: {"Load": true, "LoadRelaxed": true, "Store": true, "CAS": true},
	{"internal/mem", "Space"}:    {"Load": true, "Store": true, "CompareAndSwap": true},
	{"internal/alloc", "Allocator"}: {
		"Malloc": true, "Free": true,
	},
}

func run(p *framework.Pass) error {
	if p.Pkg.Types.Name() == "stm" {
		return nil
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			txVars := txParams(p, lit)
			if len(txVars) == 0 {
				return true
			}
			checkBody(p, lit, txVars)
			return true
		})
	}
	return nil
}

// txParams returns the *stm.Tx parameters of a function literal.
func txParams(p *framework.Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	if lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			if named, ok := framework.Deref(obj.Type()); ok && framework.IsType(named, "internal/stm", "Tx") {
				out[obj] = true
			}
		}
	}
	return out
}

func checkBody(p *framework.Pass, lit *ast.FuncLit, txVars map[types.Object]bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested closure gets its own pass when it declares its own
			// Tx; accesses inside it still belong to this transaction's
			// dynamic extent, so keep walking.
			return true
		case *ast.CallExpr:
			checkRawAccess(p, n)
		case *ast.AssignStmt:
			checkEscapeAssign(p, lit, n, txVars)
		case *ast.SendStmt:
			if obj := p.IdentObj(n.Value); obj != nil && txVars[obj] {
				p.Reportf(n.Pos(), "Tx sent on a channel escapes its transaction; pass values, not the handle")
			}
		}
		return true
	})
}

// checkRawAccess flags method calls that bypass the transaction.
func checkRawAccess(p *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := p.Pkg.Info.Selections[sel]
	if !ok {
		return
	}
	recv, ok := framework.Deref(selection.Recv())
	if !ok {
		return
	}
	for key, methods := range forbidden {
		if framework.IsType(recv, key[0], key[1]) && methods[sel.Sel.Name] {
			p.Reportf(call.Pos(),
				"raw %s.%s inside a transaction bypasses the STM protocol; use the tx.%s wrapper",
				key[1], sel.Sel.Name, txEquivalent(sel.Sel.Name))
			return
		}
	}
}

// txEquivalent names the transactional wrapper for a raw method.
func txEquivalent(m string) string {
	switch m {
	case "CAS", "CompareAndSwap":
		return "Load/Store"
	default:
		return m
	}
}

// checkEscapeAssign flags `outer = tx`: assignment of a Tx parameter to
// a variable declared outside the closure.
func checkEscapeAssign(p *framework.Pass, lit *ast.FuncLit, as *ast.AssignStmt, txVars map[types.Object]bool) {
	for i, rhs := range as.Rhs {
		obj := p.IdentObj(rhs)
		if obj == nil || !txVars[obj] {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		lhsObj := p.IdentObj(as.Lhs[i])
		if lhsObj == nil {
			// Field stores and index stores always reach memory that can
			// outlive the closure.
			p.Reportf(as.Pos(), "Tx stored outside its closure escapes the transaction")
			continue
		}
		if lhsObj.Pos() < lit.Pos() || lhsObj.Pos() > lit.End() {
			p.Reportf(as.Pos(), "Tx assigned to %q, declared outside the closure; the handle dies with the transaction", lhsObj.Name())
		}
	}
}
