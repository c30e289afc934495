package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// clockflowRootPackages are the package-path suffixes whose functions
// are treated as entry points: everything they can reach — in any
// module package, through any edge kind, including goroutines and
// stored closures — must obtain time from the injected clock.
//
// This is the call-graph generalization of nowallclock: that analyzer
// scans a fixed package list file by file, so a covered package could
// launder a wall-clock read through a helper in an uncovered package
// (or through a per-file allowance). clockflow closes those holes by
// following reachability instead of file location. The one legitimate
// wall-clock user (the health prober's inter-probe timer) carries a
// line-level //lint:ignore clockflow directive with its justification.
var clockflowRootPackages = []string{
	"internal/dispatch",
	"internal/cluster",
	"internal/overload",
	"internal/health",
}

// ClockFlow forbids wall-clock reads anywhere reachable from the
// dispatch core's entry packages.
var ClockFlow = &Analyzer{
	Name:         "clockflow",
	Doc:          "forbid wall-clock reads in any function reachable from dispatch/cluster/overload/health entry points (interprocedural)",
	WholeProgram: true,
	Run:          runClockFlow,
}

func runClockFlow(pass *Pass) {
	prog := pass.Prog

	isRoot := func(n *Node) bool {
		for _, suffix := range clockflowRootPackages {
			if strings.HasSuffix(n.Pkg.Path, suffix) {
				return true
			}
		}
		return false
	}

	// BFS from every root function over all edge kinds: a deferred call,
	// a spawned goroutine and a stored closure all execute on behalf of
	// the core, so a wall-clock read in any of them still breaks replay.
	pred := map[*Node]*Node{}
	reached := map[*Node]bool{}
	var queue []*Node
	for _, n := range prog.Graph.Nodes() {
		if isRoot(n) {
			reached[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			for _, callee := range e.Callees {
				if !reached[callee] {
					reached[callee] = true
					pred[callee] = n
					queue = append(queue, callee)
				}
			}
		}
	}

	for _, n := range prog.Graph.Nodes() {
		if !reached[n] {
			continue
		}
		chain := witnessChain(n, pred)
		ast.Inspect(n.Body, func(x ast.Node) bool {
			if _, isLit := x.(*ast.FuncLit); isLit {
				return false // the literal is its own (possibly reached) node
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := packagePathOf(n.Pkg, sel)
			if !ok || pkgPath != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock on a path reachable from the dispatch core (%s); obtain time from the injected clock",
				sel.Sel.Name, chain)
			return true
		})
	}
}

// witnessChain renders the BFS path root → ... → n for the diagnostic.
func witnessChain(n *Node, pred map[*Node]*Node) string {
	var names []string
	for at := n; at != nil; at = pred[at] {
		names = append(names, at.Name())
		if len(names) >= 6 { // keep diagnostics readable on deep chains
			names = append(names, "…")
			break
		}
	}
	s := ""
	for i := len(names) - 1; i >= 0; i-- {
		if s != "" {
			s += " → "
		}
		s += names[i]
	}
	return s
}

// packagePathOf is packageOf without a Pass: the import path of sel's
// receiver if it names an imported package.
func packagePathOf(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}
