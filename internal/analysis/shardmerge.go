package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardMerge guards the fan-out/merge contract (DESIGN.md §3.1, §10):
// the engine's cell pool is byte-identical at every worker count only
// because every cross-cell combination happens in a fixed, index-ordered
// pass after the workers drain. An accumulation performed *while* ranging
// over a channel runs in delivery order — which is completion order,
// i.e. scheduling — and one performed while ranging over a map runs in
// Go's randomized iteration order. Both are invisible to single-run
// tests (any one run looks fine) and only surface as flaky diffs across
// machines, so the invariant is linted.
//
// Inside Config.MergePkgs the analyzer flags, in a channel-range body:
//
//   - append to a slice declared outside the range (slice order becomes
//     completion order),
//   - op-assignment to a float declared outside the range (float
//     addition is not associative, so the sum depends on order),
//   - calls to merge-shaped methods (Add, Merge, Combine, Accumulate,
//     Reduce — case-insensitive) on a receiver declared outside the
//     range;
//
// and, in a map-range body, the merge-shaped method calls only (the
// other two shapes are usually legitimate collection there, and a
// deterministic consumer sorts afterwards). Integer accumulation is
// deliberately exempt: uint64 addition commutes, which is exactly why
// the replay's per-stage counters may merge in any order.
// Receivers are matched as plain identifiers only; selector chains such
// as rc.done.Add(1) are bookkeeping on shared structs, not result
// merges, and stay out of scope.
var ShardMerge = &Analyzer{
	Name: "shardmerge",
	Doc:  "flags order-dependent result merges inside channel- and map-range bodies in merge packages",
	Run:  runShardMerge,
}

func runShardMerge(pass *Pass) {
	if !containsString(pass.Config.MergePkgs, pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		// Nested ranges would report the same statement once per
		// enclosing range; dedupe by position.
		reported := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Chan:
				shardChanRangeBody(pass, rs, reported)
			case *types.Map:
				shardMapRangeBody(pass, rs, reported)
			}
			return true
		})
	}
}

// mergeMethodName reports whether a method name is merge-shaped.
func mergeMethodName(name string) bool {
	for _, m := range []string{"add", "merge", "combine", "accumulate", "reduce"} {
		if strings.EqualFold(name, m) {
			return true
		}
	}
	return false
}

func shardChanRangeBody(pass *Pass, rs *ast.RangeStmt, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ASSIGN:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id := outerIdent(pass, lhs, rs)
					if id == nil || !isAppendCall(pass, n.Rhs[i]) {
						continue
					}
					report(n.Pos(), "append to %s inside a channel-range: delivery order is completion order, so the slice order depends on scheduling; merge by index into a pre-sized slice instead", id.Name)
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					id := outerIdent(pass, lhs, rs)
					if id == nil {
						continue
					}
					if t := pass.TypeOf(id); t == nil || !isFloat(t) {
						continue
					}
					report(n.Pos(), "float accumulation into %s inside a channel-range: float addition is not associative, so the total depends on delivery order; accumulate per lane and fold in fixed lane order", id.Name)
				}
			}
		case *ast.CallExpr:
			if id, name := mergeCall(pass, n, rs); id != nil {
				report(n.Pos(), "%s.%s called inside a channel-range: merge order is completion order, not index order; collect per-lane results and merge them in a fixed-order pass after the lanes drain", id.Name, name)
			}
		}
		return true
	})
}

func shardMapRangeBody(pass *Pass, rs *ast.RangeStmt, reported map[token.Pos]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, name := mergeCall(pass, call, rs); id != nil && !reported[call.Pos()] {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(), "%s.%s called while ranging over a map: Go randomizes map iteration order, so the merge order varies run to run; sort the keys first", id.Name, name)
		}
		return true
	})
}

// mergeCall returns the receiver identifier and method name when call is
// a merge-shaped method call on a plain identifier declared outside rs.
func mergeCall(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt) (*ast.Ident, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mergeMethodName(sel.Sel.Name) {
		return nil, ""
	}
	id := outerIdent(pass, sel.X, rs)
	if id == nil {
		return nil, ""
	}
	return id, sel.Sel.Name
}

// outerIdent returns e as a plain identifier whose declaration lies
// outside the range statement, or nil. Package names never qualify: a
// package-qualified call is not a merge onto shared state.
func outerIdent(pass *Pass, e ast.Expr, rs *ast.RangeStmt) *ast.Ident {
	id, ok := stripParens(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return nil
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
		return nil // declared inside the range: lane-local, not a shared merge target
	}
	return id
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(pass *Pass, e ast.Expr) bool {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}
