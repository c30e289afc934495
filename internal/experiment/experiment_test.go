package experiment

import (
	"math"
	"strings"
	"sync"
	"testing"

	"prord/internal/trace"
)

// testRunner is small and fast: every experiment stays deterministic, so
// the shape assertions below are stable. Each test builds its own Runner,
// so the slowest tests run in parallel.
func testRunner() *Runner {
	opt := DefaultOptions()
	opt.Scale = 0.15
	return NewRunner(opt)
}

func TestOptionsDefaulting(t *testing.T) {
	r := NewRunner(Options{})
	if r.Options().Scale != DefaultOptions().Scale {
		t.Fatalf("zero options should default: %+v", r.Options())
	}
	if r.Options().LoadFactor != 30 {
		t.Fatalf("default LoadFactor = %v, want 30", r.Options().LoadFactor)
	}
}

// TestNonFiniteOptionsDefault: a NaN or infinite float option takes its
// default like a zero one. NaN fails every comparison, so a "<= 0"
// check lets it through to size caches and compress times with.
func TestNonFiniteOptionsDefault(t *testing.T) {
	d := DefaultOptions()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := NewRunner(Options{Scale: v, MemoryFraction: v, LoadFactor: v, TrainFraction: v, Seed: d.Seed}).Options()
		if got != d {
			t.Errorf("options at %v run with %+v, want the defaults %+v", v, got, d)
		}
	}
}

// TestZeroMiningOptionsDefault checks that a campaign built from a bare
// Options mines with the campaign defaults (RankDecay 0.9), not with
// mining's own (0.5).
func TestZeroMiningOptionsDefault(t *testing.T) {
	want := DefaultOptions()
	want.Scale = 0.05
	if got := NewRunner(Options{Scale: 0.05, Seed: 42}).Options(); got != NewRunner(want).Options() {
		t.Errorf("NewRunner(Options{Scale: 0.05, Seed: 42}) runs with %+v, want %+v", got, want)
	}
}

func TestTable1(t *testing.T) {
	tab, err := testRunner().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Fatalf("Table 1 has %d rows", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"150µs", "200µs", "80µs", "128 MB", "72 MB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestFig6DispatchShape(t *testing.T) {
	t.Parallel()
	tab, err := testRunner().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range presets() {
		lard := tab.MustGet(p.String(), "LARD")
		prord := tab.MustGet(p.String(), "PRORD")
		if prord >= 0.7*lard {
			t.Errorf("%s: PRORD dispatches %v should be well under LARD's %v", p, prord, lard)
		}
	}
}

// fig7Outcomes replays the cells Fig. 7 and the response-time table
// are both built from, byTrace(fig7Policies(), 0), once per test binary
// at testRunner's options. Each row's outcomes follow fig7Policies'
// order: WRR, LARD, Ext-LARD-PHTTP, PRORD.
var fig7Outcomes = sync.OnceValues(func() ([][]*outcome, error) {
	r := testRunner()
	rows := byTrace(fig7Policies(), 0)
	outs := make([][]*outcome, len(rows))
	for i, rw := range rows {
		outs[i] = make([]*outcome, len(rw.cells))
		for j, run := range rw.cells {
			var err error
			if outs[i][j], err = r.run(run); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
})

func TestFig7ThroughputShape(t *testing.T) {
	t.Parallel()
	outs, err := fig7Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	for i, rw := range byTrace(fig7Policies(), 0) {
		p := rw.lead[0]
		wrr, lard, prord := outs[i][0], outs[i][1], outs[i][3]
		if prord.Throughput <= lard.Throughput {
			t.Errorf("%s: PRORD %v should beat LARD %v (paper: +10-45%%)", p, prord.Throughput, lard.Throughput)
		}
		if lard.Throughput <= wrr.Throughput {
			t.Errorf("%s: LARD %v should beat WRR %v", p, lard.Throughput, wrr.Throughput)
		}
	}
}

func TestResponseTimeShape(t *testing.T) {
	t.Parallel()
	outs, err := fig7Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	for i, rw := range byTrace(fig7Policies(), 0) {
		p := rw.lead[0]
		wrr, prord := outs[i][0], outs[i][3]
		if respMs(prord) >= respMs(wrr) {
			t.Errorf("%s: PRORD response %vms should beat WRR %vms", p, respMs(prord), respMs(wrr))
		}
	}
}

func TestFig8LocalityPreservation(t *testing.T) {
	// Fig. 8 needs a trace long enough for the miner to matter at 10%
	// memory relative to the dataset size.
	opt := DefaultOptions()
	opt.Scale = 0.3
	tab, err := NewRunner(opt).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// PRORD's advantage should be largest when memory is scarce.
	ratioAt := func(label string) float64 {
		return tab.MustGet(label, "PRORD") / tab.MustGet(label, "LARD")
	}
	low, high := ratioAt("10%"), ratioAt("75%")
	if low <= 1 {
		t.Errorf("PRORD should beat LARD at 10%% memory, ratio %v", low)
	}
	if low <= high-0.02 {
		t.Errorf("PRORD's edge should grow as memory shrinks: 10%%=%.2f vs 75%%=%.2f", low, high)
	}
}

func TestFig9EnhancementShape(t *testing.T) {
	tab, err := testRunner().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	lard := tab.MustGet("LARD", "throughput")
	prord := tab.MustGet("PRORD", "throughput")
	bundle := tab.MustGet("LARD-bundle", "throughput")
	if prord <= lard {
		t.Errorf("PRORD %v should beat plain LARD %v", prord, lard)
	}
	if bundle <= lard {
		t.Errorf("LARD-bundle %v should beat plain LARD %v", bundle, lard)
	}
	// The mechanism columns count what fired: plain LARD has none, and
	// bundle prefetching fires on every trace with mined bundles.
	if r, p := tab.MustGet("LARD", "replicas"), tab.MustGet("LARD", "prefetches"); r != 0 || p != 0 {
		t.Errorf("plain LARD reports %v replicas and %v prefetches, want 0 and 0", r, p)
	}
	if p := tab.MustGet("LARD-bundle", "prefetches"); p == 0 {
		t.Error("LARD-bundle reports 0 prefetches")
	}
	// No enhancement should cripple the system.
	for _, v := range fig9Variants() {
		if thr := tab.MustGet(v.lead[0], "throughput"); thr < 0.85*lard {
			t.Errorf("%s throughput %v collapsed below 85%% of LARD %v", v.lead[0], thr, lard)
		}
	}
}

func TestScaleConsistency(t *testing.T) {
	tab, err := testRunner().Scale()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"6", "8", "12", "16"} {
		ratio := tab.MustGet(n, "ratio")
		if ratio < 0.9 {
			t.Errorf("%s backends: PRORD/LARD ratio %v fell below 0.9", n, ratio)
		}
	}
}

func TestHitRateShape(t *testing.T) {
	t.Parallel()
	tab, err := testRunner().HitRate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range presets() {
		wrr := tab.MustGet(p.String(), "WRR")
		lard := tab.MustGet(p.String(), "LARD")
		if lard <= wrr {
			t.Errorf("%s: LARD hit rate %v should beat WRR %v", p, lard, wrr)
		}
	}
	// The §5.2 hit-rate boost claim, on the CS trace.
	if prord, lard := tab.MustGet("CS-Trace", "PRORD"), tab.MustGet("CS-Trace", "LARD"); prord <= lard {
		t.Errorf("CS: PRORD hit rate %v should exceed LARD %v", prord, lard)
	}
}

func TestAblationOrderContextsGrow(t *testing.T) {
	tab, err := testRunner().AblationOrder()
	if err != nil {
		t.Fatal(err)
	}
	c1 := tab.MustGet("1", "contexts")
	c2 := tab.MustGet("2", "contexts")
	c3 := tab.MustGet("3", "contexts")
	if !(c1 < c2 && c2 < c3) {
		t.Errorf("contexts should grow with order: %v, %v, %v", c1, c2, c3)
	}
}

func TestAblationThreshold(t *testing.T) {
	tab, err := testRunner().AblationThreshold()
	if err != nil {
		t.Fatal(err)
	}
	// Lower thresholds must prefetch at least as much as higher ones.
	p2 := tab.MustGet("0.2", "prefetches")
	p8 := tab.MustGet("0.8", "prefetches")
	if p2 < p8 {
		t.Errorf("threshold 0.2 prefetches %v < threshold 0.8 %v", p2, p8)
	}
}

func TestAblationCache(t *testing.T) {
	tab, err := testRunner().AblationCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("cache ablation rows = %d, want 4", len(tab.Rows))
	}
}

func TestPredictorComparison(t *testing.T) {
	tab, err := testRunner().PredictorComparison()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range presets() {
		o1 := tab.MustGet(p.String(), "Order-1")
		o2 := tab.MustGet(p.String(), "Order-2")
		assoc := tab.MustGet(p.String(), "Assoc[23]")
		if o2 < 0.2 {
			t.Errorf("%s: order-2 accuracy %v too low", p, o2)
		}
		// Navigation is path-dependent (Fig. 3), so longer contexts must
		// not hurt...
		if o2 < o1-0.02 {
			t.Errorf("%s: order-2 (%v) should not trail order-1 (%v)", p, o2, o1)
		}
		// ...and sequence models must beat unordered association rules [21].
		if o2 <= assoc {
			t.Errorf("%s: order-2 (%v) should beat association rules (%v)", p, o2, assoc)
		}
	}
}

func TestDynamicSweep(t *testing.T) {
	tab, err := testRunner().Dynamic()
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.MustGet("0%", "dynamic"); v != 0 {
		t.Errorf("static row served %v dynamic requests", v)
	}
	if v := tab.MustGet("30%", "dynamic"); v == 0 {
		t.Error("30%% row should serve dynamic requests")
	}
	// PRORD should not lose to LARD at any dynamic fraction, and its
	// relative edge should not grow as content becomes uncacheable.
	r0 := tab.MustGet("0%", "ratio")
	r5 := tab.MustGet("50%", "ratio")
	if r0 < 1 {
		t.Errorf("static-site ratio %v should favor PRORD", r0)
	}
	if r5 > r0+0.05 {
		t.Errorf("dynamic content should dilute PRORD's edge: 0%%=%.2f 50%%=%.2f", r0, r5)
	}
}

func TestFailoverExperiment(t *testing.T) {
	tab, err := testRunner().Failover()
	if err != nil {
		t.Fatal(err)
	}
	healthy := tab.MustGet("healthy", "completed")
	for _, sc := range []string{"healthy", "crash", "crash+recover"} {
		if tab.MustGet(sc, "completed") != healthy {
			t.Errorf("%s completed %v, want %v (no lost requests)", sc, tab.MustGet(sc, "completed"), healthy)
		}
	}
	if tab.MustGet("healthy", "failovers") != 0 {
		t.Error("healthy run should have no failovers")
	}
	// The crash should cost locality (memory lost on one backend).
	if tab.MustGet("crash", "hitrate") >= tab.MustGet("healthy", "hitrate") {
		t.Errorf("crash hit rate %v should trail healthy %v",
			tab.MustGet("crash", "hitrate"), tab.MustGet("healthy", "hitrate"))
	}
}

func TestFrontEndsExperiment(t *testing.T) {
	opt := DefaultOptions()
	opt.Scale = 0.04
	tab, err := NewRunner(opt).FrontEnds()
	if err != nil {
		t.Fatal(err)
	}
	// More distributors must reduce the per-distributor utilization.
	u1 := tab.MustGet("LARD/1", "frontutil")
	u4 := tab.MustGet("LARD/4", "frontutil")
	if u4 >= u1 {
		t.Errorf("4 distributors should unload each front-end: 1->%v 4->%v", u1, u4)
	}
	// PRORD needs the front-end far less than LARD at any width.
	if p1 := tab.MustGet("PRORD/1", "frontutil"); p1 >= u1 {
		t.Errorf("PRORD single-front utilization %v should be below LARD's %v", p1, u1)
	}
}

func TestByIDAndIDs(t *testing.T) {
	r := testRunner()
	if _, err := r.ByID("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
	// Spot-check one cheap id through ByID.
	tab, err := r.ByID("table1")
	if err != nil || tab.ID != "table1" {
		t.Fatalf("ByID(table1) = %v, %v", tab, err)
	}
	if len(IDs()) < 10 {
		t.Fatalf("IDs() too short: %v", IDs())
	}
}

func TestExecuteErrors(t *testing.T) {
	r := testRunner()
	if _, err := r.Execute(Run{Preset: trace.Preset(99), Policy: "LARD"}); err == nil {
		t.Fatal("bad preset should error")
	}
	if _, err := r.Execute(Run{Preset: trace.PresetCS, Policy: "nope"}); err == nil {
		t.Fatal("bad policy should error")
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tab.Rows = append(tab.Rows, []string{"r1", "v1"})
	tab.set("r1", "b", 42)
	if v, ok := tab.Get("r1", "b"); !ok || v != 42 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := tab.Get("r1", "missing"); ok {
		t.Fatal("missing column should not exist")
	}
	if _, ok := tab.Get("missing", "b"); ok {
		t.Fatal("missing row should not exist")
	}
	if tab.MustGet("r1", "b") != 42 {
		t.Fatal("MustGet mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on absent cell should panic")
		}
	}()
	tab.MustGet("zz", "zz")
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "demo",
		Title:  "Demo",
		Header: []string{"col1", "column-two"},
		Rows:   [][]string{{"a", "b"}, {"long-cell-value", "c"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	if !strings.Contains(s, "== demo: Demo ==") {
		t.Fatalf("missing title: %s", s)
	}
	if !strings.Contains(s, "note: a note") {
		t.Fatalf("missing note: %s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), s)
	}
}

func TestAblationPredictor(t *testing.T) {
	tab, err := testRunner().AblationPredictor()
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"model", "ppm", "seqrules", "dg"} {
		if tab.MustGet(pred, "throughput") <= 0 {
			t.Errorf("%s: degenerate throughput", pred)
		}
		if tab.MustGet(pred, "prefetches") == 0 {
			t.Errorf("%s: never prefetched", pred)
		}
	}
}
