package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// printFuncs are the fmt functions that write straight to standard
// output.
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

// NoPrint forbids writing to standard output from internal library
// packages: fmt.Print*, the print/println builtins, and fmt.Fprint* aimed
// directly at os.Stdout/os.Stderr. Library results flow through returned
// values, io.Writer parameters or metrics; terminal output belongs to
// cmd/ and examples/. Intentional exceptions (a logger implementation)
// are documented with //lint:ignore noprint <reason>. A per-package
// pass on the Program-backed engine: printing is flagged at the call
// site itself, so reachability facts would not change the verdict.
var NoPrint = &Analyzer{
	Name: "noprint",
	Run: func(pass *Pass) {
		if !strings.Contains(pass.Pkg.Path, "/internal/") {
			return
		}
		pass.walkFiles(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name != "print" && fun.Name != "println" {
					return true
				}
				// The builtins resolve to *types.Builtin; a user-defined
				// function of the same name shadows them and is fine.
				if _, isBuiltin := pass.Pkg.Info.Uses[fun].(*types.Builtin); isBuiltin {
					pass.Reportf(call.Pos(),
						"builtin %s writes to stderr from library code; return values or accept an io.Writer instead", fun.Name)
				}
			case *ast.SelectorExpr:
				pkgPath, ok := packageOf(pass, fun)
				if !ok || pkgPath != "fmt" {
					return true
				}
				name := fun.Sel.Name
				if printFuncs[name] {
					pass.Reportf(call.Pos(),
						"fmt.%s writes to stdout from library code; return values or accept an io.Writer instead", name)
					return true
				}
				if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
					if w, ok := call.Args[0].(*ast.SelectorExpr); ok {
						if wp, ok := packageOf(pass, w); ok && wp == "os" &&
							(w.Sel.Name == "Stdout" || w.Sel.Name == "Stderr") {
							pass.Reportf(call.Pos(),
								"fmt.%s(os.%s, ...) hardcodes terminal output in library code; accept an io.Writer instead",
								name, w.Sel.Name)
						}
					}
				}
			}
			return true
		})
	},
}
