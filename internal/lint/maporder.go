package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` over a map when the loop body feeds an
// order-sensitive sink — appending to a slice declared outside the loop,
// or writing output — and the collected data is not sorted afterwards.
// Go randomizes map iteration order, so such loops make results, figures
// and serialized artifacts differ between identical runs.
//
// Order-insensitive uses (summing counters, filling another map, finding
// a minimum) are not flagged, and the collect-then-sort idiom
// (append keys, sort, iterate the slice) is recognized as safe.
//
// MapOrder stays a per-package pass on the Program-backed engine: both
// the sink and the sort live in one function body, so call-graph facts
// would not sharpen it.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Examine each function body so the sorted-afterwards exemption
		// can look at the statements that follow the loop.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkMapRanges inspects one function body (including nested blocks; the
// walk of nested function literals happens at the caller) for map-range
// loops with unsorted order-sensitive sinks.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		sink, sinkKind := findOrderSink(pass, rs)
		if sink == nil {
			return true
		}
		if sinkKind == sinkAppend && sortedAfterwards(pass, body, rs, sink) {
			return true
		}
		switch sinkKind {
		case sinkAppend:
			pass.Reportf(rs.Pos(),
				"map iteration appends to %s in nondeterministic order; sort the keys first (or sort %s before use)",
				types.ExprString(sink), types.ExprString(sink))
		case sinkWrite:
			pass.Reportf(rs.Pos(),
				"map iteration emits output in nondeterministic order; collect the keys, sort them, then iterate the slice")
		}
		return true
	})
}

type sinkType int

const (
	sinkNone sinkType = iota
	sinkAppend
	sinkWrite
)

// writeMethods are output-stream methods whose call order is observable.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// findOrderSink scans a map-range body for the first order-sensitive
// sink: an append to a variable declared outside the loop, a fmt print
// call, or a stream write to an outer writer.
func findOrderSink(pass *Pass, rs *ast.RangeStmt) (ast.Expr, sinkType) {
	info := pass.Pkg.Info
	var sink ast.Expr
	kind := sinkNone
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if kind != sinkNone {
			return false
		}
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(stmt.Lhs) {
					continue
				}
				lhs := stmt.Lhs[i]
				if base := baseIdent(lhs); base != nil && declaredOutside(info, base, rs) {
					sink, kind = lhs, sinkAppend
					return false
				}
			}
		case *ast.CallExpr:
			if sel, ok := stmt.Fun.(*ast.SelectorExpr); ok {
				if pkgPath, ok := packageOf(pass, sel); ok && pkgPath == "fmt" {
					name := sel.Sel.Name
					if len(name) >= 5 && (name[:5] == "Print" || name[:6] == "Fprint") {
						sink, kind = stmt.Fun, sinkWrite
						return false
					}
				}
				if writeMethods[sel.Sel.Name] {
					if base := baseIdent(sel.X); base != nil && declaredOutside(info, base, rs) {
						sink, kind = stmt.Fun, sinkWrite
						return false
					}
				}
			}
		}
		return true
	})
	return sink, kind
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// baseIdent returns the root identifier of an expression chain
// (cj.Vocabulary -> cj, out -> out).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id's object is declared outside the
// range statement (so appends accumulate across iterations).
func declaredOutside(info *types.Info, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedAfterwards reports whether the append target is passed to a
// sort.* or slices.Sort* call elsewhere in the same function body — the
// collect-then-sort idiom.
func sortedAfterwards(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, target ast.Expr) bool {
	info := pass.Pkg.Info
	targetStr := types.ExprString(target)
	targetObj := info.ObjectOf(baseIdent(target))
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		if n != nil && n.Pos() >= rs.Pos() && n.End() <= rs.End() {
			return false // the loop itself
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := packageOf(pass, sel)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) != targetStr {
				continue
			}
			if base := baseIdent(arg); base != nil && info.ObjectOf(base) == targetObj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
