package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes lock effects over the call graph: which lock
// classes a function may acquire (directly or through callees) and
// whether it may block. lockorder consumes both tables.
//
// A lock class is the static identity of a mutex: the struct field it
// lives in ("dispatch.Core.polMu", "dispatch.sessionShard.mu"), a
// package-level variable, or a local declaration. Two stripes of one
// striped table share a class — exactly what the stripe-order rule
// needs, since stripe indices are not statically known.
//
// The held-set walk is an approximation, tuned to under-report:
//
//   - Statements are processed in source order with branch structure:
//     an if/else arm that terminates (return, panic, break, continue)
//     does not leak its lock changes into the fall-through path, so
//     the common "if bad { mu.Unlock(); return }" shape keeps the lock
//     held afterwards.
//   - Branch merges union the surviving arms (may-held).
//   - defer mu.Unlock() — including the func(){ mu.Unlock() }()
//     wrapper — leaves the lock held for the rest of the body, which
//     is precisely how the code behaves.
//   - Loop bodies are analyzed once with the entry set; locks are
//     assumed balanced across iterations (mutexhygiene owns pairing).

// A lockClass identifies one mutex statically.
type lockClass struct {
	// key is the stable identity: "pkgpath.Type.field" for struct
	// fields, "pkgpath.var" for package-level mutexes, "local@pos" for
	// locals.
	key string
	// display is the short human name ("Core.polMu", "sh.mu").
	display string
	// rank orders the class in the configured hierarchy; 0 = unranked.
	rank int
	// leaf marks a terminal class: nothing may be acquired under it.
	leaf bool
	// ranked reports whether the class appears in the hierarchy table.
	ranked bool
}

// rankDef is one configured hierarchy entry.
type rankDef struct {
	pkgSuffix string // import-path suffix owning the type
	typeName  string
	fieldName string
	rank      int
	leaf      bool
}

// lockHierarchy is the dispatch core's documented lock order: the
// invalidation-sweep mutex first (the read path takes no lock at all —
// policy inputs are fixed at New, so the old polMu is gone), then the
// tracker and overload locks, with the session/file shard stripes as
// leaves — nothing is ever acquired while a shard stripe is held, and
// a second stripe of either shard class is never taken (stripe order
// is not statically checkable, so nesting same-class stripes is
// flagged outright). The record emitter's mutex, the striped policy
// target tables and the WRR rotor are leaves for the same reason:
// each guards a few fields and calls nothing while held. The gray
// layer adds one more leaf: the latency-outlier detector's state
// mutex (its evaluation sorts in-memory buffers only); the hedge race
// itself is refereed over a channel and holds no lock.
var lockHierarchy = []rankDef{
	{"internal/dispatch", "Core", "wrMu", 10, false},
	{"internal/dispatch", "Core", "trackMu", 20, false},
	{"internal/dispatch", "Core", "ovMu", 30, false},
	{"internal/dispatch", "sessionShard", "mu", 90, true},
	{"internal/dispatch", "fileShard", "mu", 91, true},
	{"internal/dispatch", "recordEmitter", "mu", 92, true},
	{"internal/policy", "targetStripe", "mu", 93, true},
	{"internal/policy", "WRR", "mu", 94, true},
	{"internal/health", "Detector", "mu", 97, true},
}

// classifyLock maps the receiver of a Lock/Unlock call to its class.
func classifyLock(pkg *Package, recv ast.Expr) lockClass {
	recv = unparen(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		field := sel.Sel.Name
		ownerType := ""
		ownerPkg := ""
		if tv, ok := pkg.Info.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				ownerType = named.Obj().Name()
				if named.Obj().Pkg() != nil {
					ownerPkg = named.Obj().Pkg().Path()
				}
			}
		}
		if ownerType != "" {
			c := lockClass{
				key:     ownerPkg + "." + ownerType + "." + field,
				display: ownerType + "." + field,
			}
			for _, def := range lockHierarchy {
				if def.typeName == ownerType && def.fieldName == field &&
					strings.HasSuffix(ownerPkg, def.pkgSuffix) {
					c.rank, c.leaf, c.ranked = def.rank, def.leaf, true
					break
				}
			}
			return c
		}
	}
	// Plain identifier (package-level or local mutex) or anything else:
	// identity by declaring object when resolvable, else by expression.
	if id := baseIdent(recv); id != nil {
		if obj := pkg.Info.ObjectOf(id); obj != nil {
			if obj.Parent() == pkg.Types.Scope() {
				return lockClass{key: pkg.Path + "." + obj.Name(), display: obj.Name()}
			}
			return lockClass{
				key:     fmt.Sprintf("local@%d.%s", obj.Pos(), obj.Name()),
				display: types.ExprString(recv),
			}
		}
	}
	s := types.ExprString(recv)
	return lockClass{key: "expr." + s, display: s}
}

// heldLock is one entry of the walker's lockset.
type heldLock struct {
	class lockClass
	pos   token.Pos // acquisition site
}

// lockOp is one acquisition with the set held just before it.
type lockOp struct {
	class lockClass
	pos   token.Pos
	held  []heldLock
}

// blockOp is one potentially blocking operation.
type blockOp struct {
	what string // "channel send", "time.Sleep", ...
	pos  token.Pos
	held []heldLock
}

// callSite is one resolved module-internal call with the set held at
// the site. Only CallEdge sites matter for lock propagation: deferred
// calls run at exit and go statements run on a fresh goroutine.
type callSite struct {
	edge *Edge
	held []heldLock
}

// walkResult is the per-function output of the held-set walk.
type walkResult struct {
	lockOps  []lockOp
	blockOps []blockOp
	calls    []callSite
	// acquires is the local may-acquire set (before propagation).
	acquires map[string]lockClass
	// blocksLocal is the first local blocking op, if any.
	blocksLocal *blockOp
}

// funcFacts is a function's transitive effect summary.
type funcFacts struct {
	// acquires maps class key -> class for every lock the function or
	// a (synchronous) callee may acquire.
	acquires map[string]lockClass
	// acquiresVia names the callee that contributed a class ("" when
	// acquired directly).
	acquiresVia map[string]string
	// blocks describes the first blocking operation reachable on the
	// function's own goroutine ("" when none).
	blocks string
	// blocksVia names the callee the blocking op is reached through.
	blocksVia string
}

// ensureFacts computes the walk results and the fixed-point effect
// summaries once per Program.
func (p *Program) ensureFacts() {
	if p.facts != nil {
		return
	}
	p.facts = map[*Node]*funcFacts{}
	p.walks = map[*Node]*walkResult{}
	for _, n := range p.Graph.Nodes() {
		w := walkNode(n)
		p.walks[n] = w
		f := &funcFacts{acquires: map[string]lockClass{}, acquiresVia: map[string]string{}}
		for k, c := range w.acquires {
			f.acquires[k] = c
		}
		if w.blocksLocal != nil {
			f.blocks = w.blocksLocal.what
		}
		p.facts[n] = f
	}
	// Fixed point: propagate effects caller-ward over synchronous call
	// edges until nothing changes. The module is small; a simple sweep
	// loop converges in a handful of rounds.
	for changed := true; changed; {
		changed = false
		for _, n := range p.Graph.Nodes() {
			nf := p.facts[n]
			for _, e := range n.Edges {
				if e.Kind != CallEdge {
					continue
				}
				for _, callee := range e.Callees {
					cf := p.facts[callee]
					if cf == nil {
						continue
					}
					for k, c := range cf.acquires {
						if _, ok := nf.acquires[k]; !ok {
							nf.acquires[k] = c
							nf.acquiresVia[k] = callee.Name()
							changed = true
						}
					}
					if nf.blocks == "" && cf.blocks != "" {
						nf.blocks = cf.blocks
						nf.blocksVia = callee.Name()
						changed = true
					}
				}
			}
		}
	}
}

// Facts returns a node's effect summary (nil for unknown nodes).
func (p *Program) Facts(n *Node) *funcFacts { p.ensureFacts(); return p.facts[n] }

// Walk returns a node's held-set walk result.
func (p *Program) Walk(n *Node) *walkResult { p.ensureFacts(); return p.walks[n] }

// --- the held-set walker ---

type walker struct {
	pkg *Package
	// edgeByCall finds the node's resolved edge for a call expression.
	edgeByCall map[*ast.CallExpr]*Edge
	res        *walkResult
}

func walkNode(n *Node) *walkResult {
	w := &walker{
		pkg:        n.Pkg,
		edgeByCall: map[*ast.CallExpr]*Edge{},
		res:        &walkResult{acquires: map[string]lockClass{}},
	}
	for _, e := range n.Edges {
		if e.Call != nil {
			w.edgeByCall[e.Call] = e
		}
	}
	held, _ := w.stmts(n.Body.List, nil)
	_ = held
	return w.res
}

func snapshot(held []heldLock) []heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldLock, len(held))
	copy(out, held)
	return out
}

// stmts processes a statement list with the entry lockset and returns
// the fall-through set plus whether the list always terminates.
func (w *walker) stmts(list []ast.Stmt, held []heldLock) ([]heldLock, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *walker) stmt(s ast.Stmt, held []heldLock) ([]heldLock, bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		return w.expr(st.X, held), false
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			held = w.expr(e, held)
		}
		for _, e := range st.Lhs {
			held = w.expr(e, held)
		}
		return held, false
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = w.expr(e, held)
					}
				}
			}
		}
		return held, false
	case *ast.SendStmt:
		held = w.expr(st.Chan, held)
		held = w.expr(st.Value, held)
		w.block("channel send", st.Arrow, held)
		return held, false
	case *ast.IncDecStmt:
		return w.expr(st.X, held), false
	case *ast.DeferStmt:
		return w.deferStmt(st, held), false
	case *ast.GoStmt:
		// Arguments evaluate on this goroutine; the callee runs on its
		// own with an empty lockset, so nothing propagates.
		for _, a := range st.Call.Args {
			held = w.expr(a, held)
		}
		return held, false
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			held = w.expr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path; treat like a
		// terminator so the arm's lock changes stay local to it.
		return held, true
	case *ast.BlockStmt:
		return w.stmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		held = w.expr(st.Cond, held)
		thenHeld, thenTerm := w.stmts(st.Body.List, snapshot(held))
		elseHeld, elseTerm := snapshot(held), false
		if st.Else != nil {
			elseHeld, elseTerm = w.stmt(st.Else, snapshot(held))
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return mergeHeld(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			held = w.expr(st.Cond, held)
		}
		w.stmts(st.Body.List, snapshot(held))
		return held, false
	case *ast.RangeStmt:
		held = w.expr(st.X, held)
		if tv, ok := w.pkg.Info.Types[st.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block("range over channel", st.For, held)
			}
		}
		w.stmts(st.Body.List, snapshot(held))
		return held, false
	case *ast.SwitchStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			held = w.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, snapshot(held))
				}
				w.stmts(cc.Body, snapshot(held))
			}
		}
		return held, false
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held, _ = w.stmt(st.Init, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, snapshot(held))
			}
		}
		return held, false
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block("select with no default case", st.Select, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// The comm operations themselves are accounted to the
				// select (non-blocking attempts when a default exists),
				// but their operand expressions and bodies still run.
				w.stmts(cc.Body, snapshot(held))
			}
		}
		return held, false
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, held)
	}
	return held, false
}

// deferStmt handles deferred unlocks: defer mu.Unlock() and the
// defer func(){ mu.Unlock() }() wrapper keep the lock held for the
// remainder of the body (the walker never removes it), which matches
// runtime behavior. Other deferred calls are analyzed as their own
// nodes with an empty entry set.
func (w *walker) deferStmt(st *ast.DeferStmt, held []heldLock) []heldLock {
	for _, a := range st.Call.Args {
		held = w.expr(a, held)
	}
	return held
}

// expr walks one expression, updating the lockset at mutex calls and
// recording blocking operations and resolved call sites.
func (w *walker) expr(e ast.Expr, held []heldLock) []heldLock {
	switch x := e.(type) {
	case nil:
		return held
	case *ast.CallExpr:
		// Evaluate arguments first (they run before the call).
		for _, a := range x.Args {
			held = w.expr(a, held)
		}
		if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
			m := sel.Sel.Name
			if (m == "Lock" || m == "RLock" || m == "Unlock" || m == "RUnlock" || m == "TryLock" || m == "TryRLock") &&
				isMutexExpr2(w.pkg, sel.X) {
				held = w.expr(sel.X, held)
				class := classifyLock(w.pkg, sel.X)
				switch m {
				case "Lock", "RLock":
					w.res.lockOps = append(w.res.lockOps, lockOp{class: class, pos: sel.Pos(), held: snapshot(held)})
					w.res.acquires[class.key] = class
					held = append(snapshot(held), heldLock{class: class, pos: sel.Pos()})
				case "Unlock", "RUnlock":
					held = releaseLock(held, class)
				}
				return held
			}
			held = w.expr(sel.X, held)
		} else {
			held = w.expr(x.Fun, held)
		}
		if what, blocking := blockingStdlibCall(w.pkg, x); blocking {
			w.block(what, x.Pos(), held)
			return held
		}
		if edge, ok := w.edgeByCall[x]; ok && edge.Kind == CallEdge && len(edge.Callees) > 0 {
			w.res.calls = append(w.res.calls, callSite{edge: edge, held: snapshot(held)})
		}
		return held
	case *ast.UnaryExpr:
		held = w.expr(x.X, held)
		if x.Op == token.ARROW {
			w.block("channel receive", x.OpPos, held)
		}
		return held
	case *ast.BinaryExpr:
		held = w.expr(x.X, held)
		return w.expr(x.Y, held)
	case *ast.ParenExpr:
		return w.expr(x.X, held)
	case *ast.SelectorExpr:
		return w.expr(x.X, held)
	case *ast.IndexExpr:
		held = w.expr(x.X, held)
		return w.expr(x.Index, held)
	case *ast.SliceExpr:
		held = w.expr(x.X, held)
		held = w.expr(x.Low, held)
		held = w.expr(x.High, held)
		return w.expr(x.Max, held)
	case *ast.StarExpr:
		return w.expr(x.X, held)
	case *ast.TypeAssertExpr:
		return w.expr(x.X, held)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			held = w.expr(el, held)
		}
		return held
	case *ast.KeyValueExpr:
		held = w.expr(x.Key, held)
		return w.expr(x.Value, held)
	case *ast.FuncLit:
		return held // its body is a separate node
	}
	return held
}

func (w *walker) block(what string, pos token.Pos, held []heldLock) {
	op := blockOp{what: what, pos: pos, held: snapshot(held)}
	w.res.blockOps = append(w.res.blockOps, op)
	if w.res.blocksLocal == nil {
		w.res.blocksLocal = &op
	}
}

// releaseLock removes the most recent entry of class from the set.
func releaseLock(held []heldLock, class lockClass) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class.key == class.key {
			out := make([]heldLock, 0, len(held)-1)
			out = append(out, held[:i]...)
			out = append(out, held[i+1:]...)
			return out
		}
	}
	return held
}

// mergeHeld unions two may-held sets, deduplicated by class.
func mergeHeld(a, b []heldLock) []heldLock {
	out := snapshot(a)
	seen := map[string]bool{}
	for _, h := range a {
		seen[h.class.key] = true
	}
	for _, h := range b {
		if !seen[h.class.key] {
			seen[h.class.key] = true
			out = append(out, h)
		}
	}
	return out
}

// isMutexExpr2 reports whether e's type is sync.Mutex/RWMutex or a
// pointer to one (package-level twin of the Pass-based helper).
func isMutexExpr2(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isMutexType(tv.Type)
}

// --- blocking stdlib calls ---

// blockingNetFuncs are package-level net functions that wait on the
// network.
var blockingNetFuncs = []string{"Dial", "Listen", "Lookup"}

// blockingHTTPFuncs are package-level net/http functions that perform
// round trips or serve.
var blockingHTTPFuncs = map[string]bool{
	"Get": true, "Post": true, "Head": true, "PostForm": true,
	"ListenAndServe": true, "ListenAndServeTLS": true, "Serve": true, "ServeTLS": true,
}

// blockingHTTPMethods block on types in net/http and its subpackages.
var blockingHTTPMethods = map[string]bool{
	"Do": true, "RoundTrip": true, "ListenAndServe": true, "ListenAndServeTLS": true,
	"Serve": true, "ServeTLS": true, "Shutdown": true, "ServeHTTP": true,
}

// blockingNetMethods block on types in net (conns, listeners).
var blockingNetMethods = map[string]bool{
	"Read": true, "Write": true, "Accept": true, "ReadFrom": true, "WriteTo": true,
}

// blockingStdlibCall reports whether call is a known-blocking standard
// library operation and names it. The list is deliberately explicit:
// constructors and pure helpers in net/http (NewRequest, StatusText,
// Header methods) do not block and are not listed.
func blockingStdlibCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Package-level functions: time.Sleep, net.Dial*/Listen*/Lookup*,
	// http.Get/Serve/...
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			path, name := pn.Imported().Path(), sel.Sel.Name
			switch path {
			case "time":
				if name == "Sleep" {
					return "time.Sleep", true
				}
			case "net":
				for _, prefix := range blockingNetFuncs {
					if strings.HasPrefix(name, prefix) {
						return "net." + name, true
					}
				}
			case "net/http":
				if blockingHTTPFuncs[name] {
					return "http." + name, true
				}
			}
			return "", false
		}
	}
	// Methods: resolve the receiver's defining package.
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return "", false
	}
	f, ok := selection.Obj().(*types.Func)
	if !ok || f.Pkg() == nil {
		return "", false
	}
	name := f.Name()
	switch path := f.Pkg().Path(); {
	case path == "sync":
		if name == "Wait" {
			return "sync " + recvTypeName(f) + ".Wait", true
		}
	case path == "net/http" || strings.HasPrefix(path, "net/http/"):
		if blockingHTTPMethods[name] {
			return recvTypeName(f) + "." + name, true
		}
	case path == "net":
		if blockingNetMethods[name] {
			return recvTypeName(f) + "." + name, true
		}
	}
	return "", false
}

func recvTypeName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return f.Pkg().Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return f.Pkg().Name()
}
