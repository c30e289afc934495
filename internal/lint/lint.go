// Package lint is a stdlib-only static-analysis engine for the PRORD
// repository. It enforces the determinism and concurrency invariants the
// compiler cannot see: seeded randomness only (norand), no wall-clock
// reads on any call path reachable from simulated-time code (clockflow),
// order-insensitive map iteration in aggregation paths (maporder),
// lock/unlock pairing and locked access to shared state (mutexhygiene),
// no stray printing from library code (noprint), the dispatch lock
// hierarchy and blocking-under-lock freedom (lockorder), and a rot-free
// suppression inventory (staleignore).
//
// The engine is built on go/parser, go/types and go/importer alone — no
// module dependencies. Its gate is TestRepoIsClean, which lints the
// whole module on every go test run. Every Run first builds a Program
// (callgraph.go): a type-resolved static call graph over all loaded
// packages, plus per-function lock/blocking effect summaries computed to
// a fixed point (lockset.go). Per-package analyzers receive the Program
// alongside their package; whole-program analyzers run once over it.
//
// Findings can be suppressed in source with a directive on the offending
// line or the line above it:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; a directive without one is itself reported,
// and a directive that no longer suppresses anything is reported by
// staleignore.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package, or over
// the whole program.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppression
	// directives. Lower-case, no spaces.
	Name string
	// WholeProgram marks analyzers that run once over the Program
	// (Pass.Pkg is nil) instead of once per package.
	WholeProgram bool
	// Run inspects the package (or program) via pass and reports
	// findings. A nil Run marks an engine-special analyzer evaluated
	// inside Run itself (staleignore).
	Run func(pass *Pass)
}

// A Finding is one rule violation at a source position.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}

// A Pass carries one analyzer's view of the analysis.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis; nil for whole-program
	// analyzers, which see every package through Prog.
	Pkg *Package
	// Prog is the whole-module view: packages, call graph, and the
	// lazily computed lock/blocking fact tables.
	Prog     *Program
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	var fset *token.FileSet
	if p.Pkg != nil {
		fset = p.Pkg.Fset
	} else {
		fset = p.Prog.Fset
	}
	position := fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoRand,
		MapOrder,
		MutexHygiene,
		NoPrint,
		LockOrder,
		ClockFlow,
		StaleIgnore,
	}
}

// Run applies the given analyzers to the packages and returns the
// surviving findings (suppressed ones removed, malformed suppression
// directives added, stale directives reported when staleignore is
// enabled) sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	prog := BuildProgram(pkgs)

	// Suppressions are collected across every package up front: a
	// whole-program analyzer can report into any file, so matching must
	// not be scoped to the package being iterated.
	sup := collectSuppressions(pkgs)
	findings := append([]Finding(nil), sup.malformed...)

	var raw []Finding
	staleEnabled := false
	for _, a := range analyzers {
		if a.Name == StaleIgnore.Name {
			staleEnabled = true
		}
		if a.Run == nil {
			continue
		}
		if a.WholeProgram {
			a.Run(&Pass{Analyzer: a, Prog: prog, findings: &raw})
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, findings: &raw})
		}
	}
	for _, f := range raw {
		if !sup.matches(f) {
			findings = append(findings, f)
		}
	}

	// staleignore: a directive that matched nothing is dead weight —
	// unless an analyzer it names was disabled this run, in which case
	// it never had the chance to fire. Stale-directive findings are
	// meta-findings about the suppression inventory itself and are not
	// themselves suppressible (remove the directive instead).
	if staleEnabled {
		enabled := map[string]bool{}
		for _, a := range analyzers {
			enabled[a.Name] = true
		}
		allEnabled := len(analyzers) == len(Analyzers())
		for _, d := range sup.directives {
			if d.used > 0 {
				continue
			}
			covered := true
			for name := range d.analyzers {
				if name == "all" {
					covered = covered && allEnabled
				} else if !enabled[name] {
					covered = false
				}
			}
			if !covered {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: StaleIgnore.Name,
				File:     d.file,
				Line:     d.line,
				Column:   d.column,
				Message: fmt.Sprintf(
					"//lint:ignore %s suppresses nothing; the finding it was written for is gone — delete the directive",
					d.names),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // the line the directive suppresses
	column    int
	names     string // the analyzer list as written, for diagnostics
	analyzers map[string]bool
	used      int // findings this directive suppressed in the run
}

type suppressions struct {
	directives []*ignoreDirective
	malformed  []Finding
}

const ignorePrefix = "//lint:ignore"

// collectSuppressions parses every //lint:ignore directive in the given
// packages. A directive suppresses matching findings on its own line
// (for trailing comments) and on the line below it (for directives
// placed above the offending statement).
func collectSuppressions(pkgs []*Package) suppressions {
	var s suppressions
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						s.malformed = append(s.malformed, Finding{
							Analyzer: "lint",
							File:     pos.Filename,
							Line:     pos.Line,
							Column:   pos.Column,
							Message:  "malformed directive: need //lint:ignore <analyzer> <reason>",
						})
						continue
					}
					names := map[string]bool{}
					for _, n := range strings.Split(fields[0], ",") {
						names[n] = true
					}
					s.directives = append(s.directives, &ignoreDirective{
						file:      pos.Filename,
						line:      pos.Line,
						column:    pos.Column,
						names:     fields[0],
						analyzers: names,
					})
				}
			}
		}
	}
	return s
}

// matches reports whether f is suppressed, marking the matching
// directive as used (staleignore's input).
func (s suppressions) matches(f Finding) bool {
	for _, d := range s.directives {
		if d.file != f.File {
			continue
		}
		if d.line != f.Line && d.line != f.Line-1 {
			continue
		}
		if d.analyzers[f.Analyzer] || d.analyzers["all"] {
			d.used++
			return true
		}
	}
	return false
}

// walkFiles applies fn to every node of every file in the pass's package.
func (p *Pass) walkFiles(fn func(n ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
