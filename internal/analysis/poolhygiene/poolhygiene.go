// Package poolhygiene checks the transaction-pool recycling contract
// from the paper's §6.2 study: a block served by TxPool.Get belongs to
// the pool's discipline for its whole life, so handing it to a raw
// Allocator.Free bypasses the pool's accounting — the pool still
// believes it may serve the block again, and the allocator is
// simultaneously free to reuse the words for in-band metadata. The
// companion rule keeps a pool variable on one discipline for life:
// reassigning it from NewTxPool with a different policy silently mixes
// blocks parked under the old discipline's invariants with the new
// one's, which is how the cache/reuse/batch comparisons stop measuring
// what they claim to. The stm package itself is exempt: it owns the
// pool and the default Put/quarantine routing.
package poolhygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the poolhygiene checker.
var Analyzer = &framework.Analyzer{
	Name: "poolhygiene",
	Doc:  "pooled blocks return through Put, and a pool keeps one recycling discipline for life",
	Run:  run,
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

// checkFunc applies both rules to one function body.
func checkFunc(p *framework.Pass, body *ast.BlockStmt) {
	// pooled: variable -> position of the TxPool.Get that tainted it.
	pooled := map[types.Object]token.Pos{}
	// disciplines: pool variable -> source text of its first NewTxPool
	// argument.
	disciplines := map[types.Object]string{}

	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) == 0 {
			return true
		}
		// Assignments are matched positionally; multi-value calls
		// (x, err := f()) have one Rhs and never return a pool or a
		// pooled address here, so index pairing is safe.
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			obj := p.IdentObj(lhs)
			if obj == nil {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if isMethodCall(p, call, "internal/stm", "TxPool", "Get") {
				if _, seen := pooled[obj]; !seen {
					pooled[obj] = call.Pos()
				}
			}
			if arg, ok := newTxPoolArg(p, call); ok {
				if prev, seen := disciplines[obj]; seen && prev != arg {
					p.Reportf(call.Pos(),
						"pool %q reused across disciplines: first NewTxPool(%s), now NewTxPool(%s); blocks parked under the old policy leak into the new one",
						obj.Name(), prev, arg)
				} else if !seen {
					disciplines[obj] = arg
				}
			}
		}
		return true
	})
	if len(pooled) == 0 {
		return
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMethodCall(p, call, "internal/alloc", "Allocator", "Free") {
			return true
		}
		for _, arg := range call.Args {
			obj := p.IdentObj(arg)
			if obj == nil {
				continue
			}
			if got, tainted := pooled[obj]; tainted && call.Pos() > got {
				p.Reportf(call.Pos(),
					"block %q came from TxPool.Get but is freed raw; return it with Put so the pool's accounting stays truthful",
					obj.Name())
			}
		}
		return true
	})
}

// newTxPoolArg reports the source text of the discipline argument if
// call is stm.NewTxPool(...).
func newTxPoolArg(p *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewTxPool" {
		return "", false
	}
	obj := p.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/stm") {
		return "", false
	}
	if len(call.Args) != 1 {
		return "", false
	}
	return types.ExprString(call.Args[0]), true
}

// isMethodCall reports whether call invokes pkgSuffix.typeName.method.
func isMethodCall(p *framework.Pass, call *ast.CallExpr, pkgSuffix, typeName, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	selection, ok := p.Pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	recv, ok := framework.Deref(selection.Recv())
	if !ok {
		return false
	}
	return framework.IsType(recv, pkgSuffix, typeName)
}
