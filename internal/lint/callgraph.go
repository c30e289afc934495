package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the Program: the whole-module view the call-graph
// analyzers (lockorder, clockflow) and the fact-aware ports of the
// original analyzers run against. It stays stdlib-only: the graph is
// resolved from go/types information alone.
//
// Resolution is deliberately static and bounded:
//
//   - Direct calls (pkg.F(), x.Method() on a concrete receiver) resolve
//     to exactly one callee.
//   - Calls through an interface declared in this module resolve to the
//     method set of every module type implementing it — bounded by
//     maxIfaceImpls; past the bound the call is treated as opaque
//     rather than exploding the graph.
//   - Interfaces declared outside the module (io.Writer, error,
//     http.Handler, ...) are opaque: their implementation sets are
//     open-ended and resolving them drags unrelated packages into
//     reachability.
//   - Function values (callbacks, stored closures) are opaque. A
//     function literal still becomes its own node, with an edge from
//     the enclosing function whose kind records how it runs: called
//     in place, deferred, launched with go, or merely referenced.
//
// Opaque calls are treated as neither locking nor blocking — the
// engine under-approximates rather than flooding CI with guesses.

// maxIfaceImpls bounds method-set resolution for one interface method.
// An interface with more module implementations than this is treated
// as opaque.
const maxIfaceImpls = 16

// EdgeKind says how a call site transfers control.
type EdgeKind int

const (
	// CallEdge is a plain synchronous call: the callee runs on the
	// caller's goroutine with the caller's locks held.
	CallEdge EdgeKind = iota
	// DeferEdge is a deferred call: same goroutine, but at function
	// exit, so the caller's mid-body lockset does not apply.
	DeferEdge
	// GoEdge launches the callee on a new goroutine: locks held by the
	// caller are not held by the callee.
	GoEdge
	// RefEdge records a function literal that is referenced (stored,
	// passed as a callback) without being called in place.
	RefEdge
)

// A Node is one analyzable function: a declared function or method, or
// a function literal.
type Node struct {
	// Func is the declared function's object; nil for literals.
	Func *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the package the body lives in.
	Pkg *Package
	// Body is the function body (never nil for graph nodes).
	Body *ast.BlockStmt
	// Edges are the node's resolved outgoing call sites, in source
	// order.
	Edges []*Edge
}

// Name returns a human-readable identifier for diagnostics:
// "Core.Route", "lookupSession", or "func@file:line" for literals.
func (n *Node) Name() string {
	if n.Func != nil {
		if recv := n.Func.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + n.Func.Name()
			}
		}
		return n.Func.Name()
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return "func literal at line " + itoa(pos.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// An Edge is one call site with its resolved targets.
type Edge struct {
	Kind EdgeKind
	// Pos is the call position.
	Pos token.Pos
	// Call is the call expression (nil for RefEdge literals).
	Call *ast.CallExpr
	// Callees are the resolved module-internal targets. Empty means the
	// call is opaque (stdlib, function value, over-wide interface).
	Callees []*Node
}

// CallGraph is the module's static call graph.
type CallGraph struct {
	// ByFunc maps a declared function object to its node.
	ByFunc map[*types.Func]*Node
	// nodes is every node (declared + literals) in deterministic order:
	// package path, then position.
	nodes []*Node
}

// Nodes returns every node in deterministic order.
func (g *CallGraph) Nodes() []*Node { return g.nodes }

// A Program is the whole-module analysis view shared by every
// analyzer in one Run: the packages, the call graph, and (computed on
// first use) the per-function lock/blocking fact tables.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph

	// modulePrefix is the first import-path segment of the analyzed
	// packages ("prord"); interfaces outside it are opaque.
	modulePrefix string

	facts map[*Node]*funcFacts // lazily built by ensureFacts
	walks map[*Node]*walkResult
}

// BuildProgram constructs the module view for one Run. Packages should
// share a FileSet (they do when produced by one Loader; fixture tests
// pass a single package).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
		if i := strings.IndexByte(pkgs[0].Path, '/'); i > 0 {
			prog.modulePrefix = pkgs[0].Path[:i]
		} else {
			prog.modulePrefix = pkgs[0].Path
		}
	}
	b := &graphBuilder{
		prog:  prog,
		graph: &CallGraph{ByFunc: map[*types.Func]*Node{}},
		impls: map[string][]*types.Func{},
	}
	b.build()
	prog.Graph = b.graph
	return prog
}

type graphBuilder struct {
	prog  *Program
	graph *CallGraph
	impls map[string][]*types.Func // iface cache: key -> concrete methods
}

func (b *graphBuilder) build() {
	// Pass 1: a node per declared function with a body.
	for _, pkg := range b.prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &Node{Func: fn, Decl: fd, Pkg: pkg, Body: fd.Body}
				if fn != nil {
					b.graph.ByFunc[fn] = node
				}
				b.graph.nodes = append(b.graph.nodes, node)
			}
		}
	}
	// Pass 2: edges, creating literal nodes as they are found. Literal
	// nodes are appended during the walk, and their own edges resolved
	// in turn (the slice grows while we iterate).
	for i := 0; i < len(b.graph.nodes); i++ {
		b.edges(b.graph.nodes[i])
	}
	sort.SliceStable(b.graph.nodes, func(i, j int) bool {
		a, c := b.graph.nodes[i], b.graph.nodes[j]
		if a.Pkg.Path != c.Pkg.Path {
			return a.Pkg.Path < c.Pkg.Path
		}
		return a.Body.Pos() < c.Body.Pos()
	})
}

// edges walks one node's body, resolving call sites. Function literals
// become child nodes; their bodies are not walked as part of the
// parent (each literal is its own scope).
func (b *graphBuilder) edges(n *Node) {
	// claimed marks calls consumed by a go/defer statement so the
	// generic CallExpr case does not double-count them, and literals
	// consumed as a call's Fun so they are not re-recorded as RefEdges.
	claimed := map[ast.Node]EdgeKind{}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.GoStmt:
			claimed[s.Call] = GoEdge
		case *ast.DeferStmt:
			claimed[s.Call] = DeferEdge
		case *ast.CallExpr:
			kind, ok := claimed[s]
			if !ok {
				kind = CallEdge
			}
			if lit, isLit := unparen(s.Fun).(*ast.FuncLit); isLit {
				child := b.litNode(n, lit)
				n.Edges = append(n.Edges, &Edge{Kind: kind, Pos: s.Pos(), Call: s, Callees: []*Node{child}})
				claimed[lit] = kind
				return true
			}
			callees := b.resolve(n.Pkg, s)
			n.Edges = append(n.Edges, &Edge{Kind: kind, Pos: s.Pos(), Call: s, Callees: callees})
		case *ast.FuncLit:
			if _, consumed := claimed[s]; !consumed {
				child := b.litNode(n, s)
				n.Edges = append(n.Edges, &Edge{Kind: RefEdge, Pos: s.Pos(), Callees: []*Node{child}})
			}
			return false // the literal's body belongs to its own node
		}
		return true
	})
}

// litNode creates (and registers) the node for one function literal.
func (b *graphBuilder) litNode(parent *Node, lit *ast.FuncLit) *Node {
	child := &Node{Lit: lit, Pkg: parent.Pkg, Body: lit.Body}
	b.graph.nodes = append(b.graph.nodes, child)
	return child
}

// resolve maps one call expression to its module-internal targets.
func (b *graphBuilder) resolve(pkg *Package, call *ast.CallExpr) []*Node {
	// A conversion (T(x)) parses as a call; skip it.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return b.nodesFor(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return b.ifaceTargets(sel.Recv(), f)
			}
			return b.nodesFor(f)
		}
		// Package-qualified function (pkg.F) or method expression.
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return b.nodesFor(f)
		}
	}
	return nil
}

func (b *graphBuilder) nodesFor(f *types.Func) []*Node {
	if f == nil {
		return nil
	}
	if origin := f.Origin(); origin != nil {
		f = origin
	}
	if n, ok := b.graph.ByFunc[f]; ok {
		return []*Node{n}
	}
	return nil
}

// ifaceTargets implements bounded method-set resolution: a call on an
// interface declared in this module resolves to the matching method of
// every module type implementing it, capped at maxIfaceImpls.
func (b *graphBuilder) ifaceTargets(recv types.Type, m *types.Func) []*Node {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if m.Pkg() == nil || !b.inModule(m.Pkg().Path()) {
		return nil // interface declared outside the module: opaque
	}
	key := types.TypeString(recv, nil) + "." + m.Name()
	concrete, cached := b.impls[key]
	if !cached {
		concrete = b.findImpls(iface, m.Name())
		b.impls[key] = concrete
	}
	var out []*Node
	for _, f := range concrete {
		out = append(out, b.nodesFor(f)...)
	}
	return out
}

// findImpls scans the analyzed packages for named non-interface types
// implementing iface and returns their name methods.
func (b *graphBuilder) findImpls(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, pkg := range b.prog.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, tname := range scope.Names() {
			tn, ok := scope.Lookup(tname).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if ok && types.IsInterface(named) {
				continue
			}
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), name)
			if f, ok := obj.(*types.Func); ok {
				out = append(out, f)
				if len(out) > maxIfaceImpls {
					return nil // over the bound: opaque
				}
			}
		}
	}
	return out
}

func (b *graphBuilder) inModule(path string) bool {
	return path == b.prog.modulePrefix || strings.HasPrefix(path, b.prog.modulePrefix+"/")
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
