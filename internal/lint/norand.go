package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// randExemptSuffix marks the one package allowed to touch math/rand: the
// seeded wrapper everything else must go through.
const randExemptSuffix = "internal/randutil"

// globalRandFuncs are the math/rand top-level functions backed by the
// shared global source. Using them breaks replayability: the draw order
// depends on every other caller in the process. Constructors like
// rand.New and rand.NewSource are allowed — they are how a seeded stream
// is built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// NoRand forbids the global math/rand source outside internal/randutil.
// It is a per-package pass on the Program-backed engine: pure AST
// pattern, no call-graph facts needed (a helper wrapping rand.Intn is
// itself flagged wherever it lives, so reachability adds nothing).
var NoRand = &Analyzer{
	Name: "norand",
	Run: func(pass *Pass) {
		if strings.HasSuffix(pass.Pkg.Path, randExemptSuffix) {
			return
		}
		pass.walkFiles(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := packageOf(pass, sel)
			if !ok || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") {
				return true
			}
			if globalRandFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the global math/rand source; use a seeded internal/randutil.Source so runs are replayable",
					importBase(pkgPath), sel.Sel.Name)
			}
			return true
		})
	},
}

// packageOf reports the import path of sel's receiver if it is a package
// name (e.g. rand in rand.Intn).
func packageOf(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := pass.Pkg.Info.Uses[id]
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

func importBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base := path[i+1:]
		if base == "v2" { // math/rand/v2 is still referred to as rand
			return "rand"
		}
		return base
	}
	return path
}
