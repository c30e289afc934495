package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MutexHygiene enforces two locking invariants:
//
//  1. A function that calls mu.Lock() (or mu.RLock()) must also call the
//     matching Unlock — directly or via defer — on the same mutex
//     expression. A lock with no unlock anywhere in the function is
//     almost always a leaked critical section.
//
//  2. An exported method on a type that embeds a sync.Mutex/RWMutex must
//     not write the type's fields without taking that lock: exported
//     methods are the concurrent API surface, and an unlocked write
//     there is a data race waiting for the race detector.
//
// Unexported methods are exempt from (2): by convention they run with
// the lock already held by their exported callers.
//
// Rule (2) is call-graph aware: an exported method that delegates
// locking to a helper (directly or transitively, via the Program's
// effect summaries) counts as locked — only methods on no path to a
// receiver-mutex acquisition are flagged.
var MutexHygiene = &Analyzer{
	Name: "mutexhygiene",
	Run:  runMutexHygiene,
}

func runMutexHygiene(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockPairing(pass, fn.Body)
					checkExportedMethodWrites(pass, fn)
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					checkLockPairing(pass, fn.Body)
				}
			}
			return true
		})
	}
}

// lockCall is one Lock/Unlock-family call on a mutex-typed receiver.
type lockCall struct {
	recv   string // canonical receiver expression, e.g. "d.mu"
	method string // Lock, Unlock, RLock, RUnlock
	read   bool   // RLock/RUnlock
	pos    ast.Node
}

// mutexCalls collects the Lock-family calls in body, skipping nested
// function literals (their defers belong to them, so they are analyzed
// as their own scope).
func mutexCalls(pass *Pass, body *ast.BlockStmt) (calls []lockCall, deferred []lockCall) {
	collect := func(n ast.Node, isDefer bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		m := sel.Sel.Name
		if m != "Lock" && m != "Unlock" && m != "RLock" && m != "RUnlock" {
			return
		}
		if !isMutexExpr(pass, sel.X) {
			return
		}
		lc := lockCall{
			recv:   types.ExprString(sel.X),
			method: m,
			read:   strings.HasPrefix(m, "R"),
			pos:    sel,
		}
		if isDefer {
			deferred = append(deferred, lc)
		} else {
			calls = append(calls, lc)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// Look inside the deferred call, including the common
			// defer func() { mu.Unlock() }() wrapper.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					collect(m, true)
					return true
				})
			} else {
				collect(x.Call, true)
			}
			return false
		case *ast.CallExpr:
			collect(x, false)
		}
		return true
	})
	return calls, deferred
}

// checkLockPairing reports mutexes locked in body with no matching
// unlock in the same function.
func checkLockPairing(pass *Pass, body *ast.BlockStmt) {
	calls, deferred := mutexCalls(pass, body)
	type key struct {
		recv string
		read bool
	}
	type tally struct {
		locks   int
		unlocks int
		first   ast.Node
	}
	tallies := map[key]*tally{}
	bump := func(lc lockCall) {
		k := key{lc.recv, lc.read}
		t := tallies[k]
		if t == nil {
			t = &tally{}
			tallies[k] = t
		}
		if strings.HasSuffix(lc.method, "Unlock") {
			t.unlocks++
		} else {
			t.locks++
			if t.first == nil {
				t.first = lc.pos
			}
		}
	}
	for _, lc := range calls {
		bump(lc)
	}
	for _, lc := range deferred {
		bump(lc)
	}
	for k, t := range tallies {
		if t.locks > 0 && t.unlocks == 0 {
			verb := "Lock"
			unlock := "Unlock"
			if k.read {
				verb, unlock = "RLock", "RUnlock"
			}
			pass.Reportf(t.first.Pos(),
				"%s.%s() has no matching %s.%s() in this function; unlock on every path (prefer defer %s.%s())",
				k.recv, verb, k.recv, unlock, k.recv, unlock)
		}
	}
}

// isMutexExpr reports whether e's type is sync.Mutex, sync.RWMutex or a
// pointer to one.
func isMutexExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isMutexType(tv.Type)
}

func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkExportedMethodWrites applies rule (2): exported methods of
// mutex-holding types must lock before writing receiver fields.
func checkExportedMethodWrites(pass *Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || !fn.Name.IsExported() {
		return
	}
	recvField := fn.Recv.List[0]
	if len(recvField.Names) == 0 {
		return
	}
	recvIdent := recvField.Names[0]
	recvObj := pass.Pkg.Info.Defs[recvIdent]
	if recvObj == nil {
		return
	}
	mutexFields := mutexFieldsOf(recvObj.Type())
	if len(mutexFields) == 0 {
		return
	}

	// Does the method lock any of the receiver's mutexes?
	calls, deferred := mutexCalls(pass, fn.Body)
	locked := false
	for _, lc := range append(calls, deferred...) {
		for _, mf := range mutexFields {
			if lc.recv == recvIdent.Name+"."+mf || lc.recv == recvIdent.Name {
				locked = true
			}
		}
	}
	// Or does a callee lock them on the method's behalf? The Program's
	// fixed-point effect summaries answer transitively: a delegating
	// wrapper around a locking helper is locked, not a violation.
	if !locked && pass.Prog != nil {
		if f, ok := pass.Pkg.Info.Defs[fn.Name].(*types.Func); ok && f != nil {
			if node := pass.Prog.Graph.ByFunc[f]; node != nil {
				if facts := pass.Prog.Facts(node); facts != nil {
					recvType := namedTypeName(recvObj.Type())
					for _, mf := range mutexFields {
						for _, class := range facts.acquires {
							if strings.HasSuffix(class.key, "."+recvType+"."+mf) {
								locked = true
							}
						}
					}
				}
			}
		}
	}
	if locked {
		return
	}

	// Find direct writes to receiver fields (other than the mutexes).
	report := func(n ast.Node, fieldExpr ast.Expr) {
		pass.Reportf(n.Pos(),
			"exported method %s writes %s without holding %s.%s; take the lock or document with //lint:ignore mutexhygiene <reason>",
			fn.Name.Name, types.ExprString(fieldExpr), recvIdent.Name, mutexFields[0])
	}
	isRecvFieldWrite := func(e ast.Expr) (ast.Expr, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		base := baseIdent(sel.X)
		if base == nil || pass.Pkg.Info.ObjectOf(base) != recvObj {
			return nil, false
		}
		for _, mf := range mutexFields {
			if sel.Sel.Name == mf {
				return nil, false
			}
		}
		return e, true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				if e, ok := isRecvFieldWrite(lhs); ok {
					report(stmt, e)
					return false
				}
			}
		case *ast.IncDecStmt:
			if e, ok := isRecvFieldWrite(stmt.X); ok {
				report(stmt, e)
				return false
			}
		}
		return true
	})
}

// namedTypeName returns the name of t's named type (dereferencing a
// pointer receiver), or "" when t is unnamed.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// mutexFieldsOf returns the names of sync.Mutex/RWMutex fields of t's
// underlying struct (dereferencing a pointer receiver).
func mutexFieldsOf(t types.Type) []string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutexType(f.Type()) {
			fields = append(fields, f.Name())
		}
	}
	return fields
}
