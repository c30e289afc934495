package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureFset and fixtureStd are shared by every fixture, so the
// standard library is type-checked from source once per test binary.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
)

// checkFixture parses and type-checks one testdata file under an
// arbitrary import path (so package-scoped rules can be exercised both
// inside and outside their scope).
func checkFixture(t *testing.T, fixture, pkgPath string) *Package {
	t.Helper()
	fset := fixtureFset
	path := filepath.Join("testdata", fixture)
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", fixture, err)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: fixtureStd,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, _ := conf.Check(pkgPath, fset, []*ast.File{f}, info)
	if len(typeErrs) > 0 {
		t.Fatalf("fixture %s has type errors (the test would be meaningless): %v", fixture, typeErrs)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// wantedFindings reads the `// want <analyzer>` markers out of a fixture.
func wantedFindings(t *testing.T, fixture string) map[int]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			want[i+1] = m[1]
		}
	}
	return want
}

// gotFindings reduces findings to line -> analyzer for comparison.
func gotFindings(findings []Finding) map[int]string {
	got := map[int]string{}
	for _, f := range findings {
		got[f.Line] = f.Analyzer
	}
	return got
}

func TestAnalyzersOnFixtures(t *testing.T) {
	type fixtureCase struct {
		name      string
		fixture   string
		pkgPath   string
		analyzers []*Analyzer
		// wantNone overrides the fixture's want markers: the package
		// path puts it out of the analyzer's scope.
		wantNone bool
	}
	cases := []fixtureCase{
		{name: "norand", fixture: "norand.go", pkgPath: "prord/internal/trace", analyzers: []*Analyzer{NoRand}},
		{name: "norand-exempt-in-randutil", fixture: "norand.go", pkgPath: "prord/internal/randutil", analyzers: []*Analyzer{NoRand}, wantNone: true},
		{name: "maporder", fixture: "maporder.go", pkgPath: "prord/internal/experiment", analyzers: []*Analyzer{MapOrder}},
		{name: "mutexhygiene", fixture: "mutexhygiene.go", pkgPath: "prord/internal/httpfront", analyzers: []*Analyzer{MutexHygiene}},
		{name: "noprint", fixture: "noprint.go", pkgPath: "prord/internal/mining", analyzers: []*Analyzer{NoPrint}},
		{name: "noprint-exempt-in-cmd", fixture: "noprint.go", pkgPath: "prord/cmd/foo", analyzers: []*Analyzer{NoPrint}, wantNone: true},
		{name: "lockorder-inversion", fixture: "lockorder/inversion.go", pkgPath: "prord/internal/dispatch", analyzers: []*Analyzer{LockOrder}},
		{name: "lockorder-unranked-elsewhere", fixture: "lockorder/inversion.go", pkgPath: "prord/internal/other", analyzers: []*Analyzer{LockOrder}, wantNone: true},
		{name: "lockorder-blocking", fixture: "lockorder/blocking.go", pkgPath: "prord/internal/dispatch", analyzers: []*Analyzer{LockOrder}},
		{name: "lockorder-blocking-rank-independent", fixture: "lockorder/blocking.go", pkgPath: "prord/internal/other", analyzers: []*Analyzer{LockOrder}},
		{name: "lockorder-stripe", fixture: "lockorder/stripe.go", pkgPath: "prord/internal/dispatch", analyzers: []*Analyzer{LockOrder}},
		{name: "lockorder-stripe-rank-independent", fixture: "lockorder/stripe.go", pkgPath: "prord/internal/other", analyzers: []*Analyzer{LockOrder}},
		{name: "lockorder-clean", fixture: "lockorder/clean.go", pkgPath: "prord/internal/dispatch", analyzers: []*Analyzer{LockOrder}},
		{name: "lockorder-detectorleaf", fixture: "lockorder/detectorleaf.go", pkgPath: "prord/internal/health", analyzers: []*Analyzer{LockOrder}},
		{name: "clockflow-indirect", fixture: "clockflow/indirect.go", pkgPath: "prord/internal/dispatch", analyzers: []*Analyzer{ClockFlow}},
		{name: "clockflow-out-of-scope", fixture: "clockflow/indirect.go", pkgPath: "prord/internal/webmining", analyzers: []*Analyzer{ClockFlow}, wantNone: true},
		{name: "clockflow-ignored", fixture: "clockflow/ignored.go", pkgPath: "prord/internal/health", analyzers: []*Analyzer{ClockFlow, StaleIgnore}},
		{name: "staleignore", fixture: "staleignore/stale.go", pkgPath: "prord/internal/mining", analyzers: []*Analyzer{NoPrint, StaleIgnore}},
	}
	// Every simulated-time root flags both wall-clock fixtures, the
	// health prober's name included; httpfront reads real time freely.
	for _, pkg := range []string{"sim", "cluster", "health", "policy", "replicate", "httpfront"} {
		for _, fixture := range []string{"wallclock", "prober"} {
			cases = append(cases, fixtureCase{
				name:      "clockflow-" + fixture + "-" + pkg,
				fixture:   "clockflow/" + fixture + ".go",
				pkgPath:   "prord/internal/" + pkg,
				analyzers: []*Analyzer{ClockFlow},
				wantNone:  pkg == "httpfront",
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := checkFixture(t, tc.fixture, tc.pkgPath)
			findings := Run([]*Package{pkg}, tc.analyzers)
			want := wantedFindings(t, tc.fixture)
			if tc.wantNone {
				want = map[int]string{}
			}
			got := gotFindings(findings)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v\nfull: %v", got, want, findings)
			}
		})
	}
}

// TestLockOrderExactFindings pins the acceptance fixtures down to
// exactly one finding per seeded violation — not merely "a finding on
// the right line": duplicate reports for one bug would drown real runs.
func TestLockOrderExactFindings(t *testing.T) {
	cases := []struct {
		fixture string
		want    int
	}{
		{"lockorder/inversion.go", 3}, // direct, via-callee, rank inversion
		{"lockorder/blocking.go", 2},  // direct send, send via helper
		{"lockorder/stripe.go", 1},
		{"lockorder/clean.go", 0},
	}
	for _, tc := range cases {
		pkg := checkFixture(t, tc.fixture, "prord/internal/dispatch")
		findings := Run([]*Package{pkg}, []*Analyzer{LockOrder})
		if len(findings) != tc.want {
			t.Errorf("%s: want exactly %d lockorder finding(s), got %d: %v",
				tc.fixture, tc.want, len(findings), findings)
		}
	}
}

// TestEffectSummariesPropagate checks the fixed point directly: the
// caller of a locking, blocking helper inherits both effects.
func TestEffectSummariesPropagate(t *testing.T) {
	pkg := checkFixture(t, "lockorder/blocking.go", "prord/internal/dispatch")
	prog := BuildProgram([]*Package{pkg})
	var helper, caller *Node
	for _, n := range prog.Graph.Nodes() {
		switch n.Name() {
		case "push":
			helper = n
		case "fileShard.sendViaHelper":
			caller = n
		}
	}
	if helper == nil || caller == nil {
		t.Fatalf("graph missing expected nodes (have %d nodes)", len(prog.Graph.Nodes()))
	}
	if f := prog.Facts(helper); f.blocks == "" {
		t.Errorf("push: want blocks set, got %+v", f)
	}
	cf := prog.Facts(caller)
	if cf.blocks == "" || cf.blocksVia != "push" {
		t.Errorf("sendViaHelper: want blocking inherited via push, got blocks=%q via=%q", cf.blocks, cf.blocksVia)
	}
	if len(cf.acquires) == 0 {
		t.Errorf("sendViaHelper: want its own mu acquisition in the summary, got %+v", cf.acquires)
	}
}

func TestSuppressionDirectives(t *testing.T) {
	pkg := checkFixture(t, "suppress.go", "prord/internal/mining")
	findings := Run([]*Package{pkg}, []*Analyzer{NoPrint})

	var lines []int
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		lines = append(lines, f.Line)
		byAnalyzer[f.Analyzer]++
	}
	// The two directives in suppressed() must remove their findings; the
	// wrong-analyzer directive must not; the reason-less directive is
	// itself reported as malformed and suppresses nothing.
	if byAnalyzer["noprint"] != 2 {
		t.Errorf("want 2 surviving noprint findings, got %d (%v)", byAnalyzer["noprint"], findings)
	}
	if byAnalyzer["lint"] != 1 {
		t.Errorf("want 1 malformed-directive finding, got %d (%v)", byAnalyzer["lint"], findings)
	}
	for _, f := range findings {
		if f.Line <= 8 {
			t.Errorf("finding on suppressed line %d: %v", f.Line, f)
		}
	}
	_ = lines
}

func TestFindingsAreSorted(t *testing.T) {
	pkg := checkFixture(t, "noprint.go", "prord/internal/mining")
	a := Run([]*Package{pkg}, Analyzers())
	b := Run([]*Package{pkg}, Analyzers())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Run is not deterministic across invocations")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Line > a[i].Line {
			t.Fatalf("findings not sorted by line: %v", a)
		}
	}
}

// module caches one Load of the whole module for the tests that need it.
var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

func loadModule(t *testing.T) []*Package {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = Load() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

func TestLoaderResolvesModulePackages(t *testing.T) {
	pkgs := loadModule(t)
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("loaded a testdata package: %s", pkg.Path)
		}
		byPath[pkg.Path] = pkg
	}
	if byPath["prord"] == nil {
		t.Error("module root package not loaded")
	}
	randutil := byPath["prord/internal/randutil"]
	if randutil == nil {
		t.Fatalf("prord/internal/randutil not among %d loaded packages", len(pkgs))
	}
	if len(randutil.TypeErrors) > 0 {
		t.Fatalf("type errors loading randutil: %v", randutil.TypeErrors)
	}
	if len(randutil.Files) == 0 {
		t.Fatal("no files loaded")
	}
}

// TestRepoIsClean lints the whole module with every analyzer: the tree
// must stay free of determinism and concurrency findings. It is the
// repo's only lint gate, so it runs in -short mode too.
func TestRepoIsClean(t *testing.T) {
	findings := Run(loadModule(t), Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
