package replicate

import (
	"fmt"
	"sort"
	"testing"

	"prord/internal/mining"
)

// fakePlacer records replica placement in memory.
type fakePlacer struct {
	n        int
	replicas map[string]map[int]bool
	pushes   int
	drops    int
}

func newFakePlacer(n int) *fakePlacer {
	return &fakePlacer{n: n, replicas: make(map[string]map[int]bool)}
}

func (p *fakePlacer) NumServers() int { return p.n }

func (p *fakePlacer) Holders(file string) []int {
	var out []int
	for s := range p.replicas[file] {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (p *fakePlacer) Replicate(file string, server int) {
	m, ok := p.replicas[file]
	if !ok {
		m = make(map[int]bool)
		p.replicas[file] = m
	}
	m[server] = true
	p.pushes++
}

func (p *fakePlacer) Drop(file string, server int) {
	delete(p.replicas[file], server)
	p.drops++
}

func TestDegreeLadder(t *testing.T) {
	const t1 = 100.0
	const n = 8
	cases := []struct {
		count float64
		want  int
	}{
		{150, 8},  // > T1: all
		{101, 8},  // just above T1
		{100, 6},  // == T1 falls into the 3/4 band
		{60, 6},   // (T1/2, T1]: ceil(3/4 * 8) = 6
		{51, 6},   //
		{50, 4},   // (T1/4, T1/2]: half
		{26, 4},   //
		{25, -1},  // (T1/8, T1/4]: no change
		{13, -1},  //
		{12.5, 0}, // <= T1/8: none
		{0, 0},
	}
	for _, c := range cases {
		if got := Degree(c.count, t1, n); got != c.want {
			t.Errorf("Degree(%v) = %d, want %d", c.count, got, c.want)
		}
	}
}

func TestDegreeSmallCluster(t *testing.T) {
	// Fractional degrees must stay >= 1 for non-empty bands.
	if got := Degree(60, 100, 1); got != 1 {
		t.Fatalf("Degree on 1-server cluster = %d, want 1", got)
	}
}

func TestStepReplicatesHotFile(t *testing.T) {
	r := mining.NewRanker(1) // no decay within the test
	for i := 0; i < 96; i++ {
		r.Observe("/hot")
	}
	for i := 0; i < 4; i++ {
		r.Observe("/cold")
	}
	m := NewManager(r, Config{T1Fraction: 0.5}) // T1 = 50
	p := newFakePlacer(4)
	pushed := m.Step(p)
	if got := p.Holders("/hot"); len(got) != 4 {
		t.Fatalf("/hot holders = %v, want all 4", got)
	}
	if pushed < 4 {
		t.Fatalf("pushed = %d, want >= 4", pushed)
	}
	// /cold count (4) <= T1/8 (6.25): no replicas.
	if got := p.Holders("/cold"); len(got) != 0 {
		t.Fatalf("/cold holders = %v, want none", got)
	}
	if m.Steps() != 1 {
		t.Fatalf("Steps = %d", m.Steps())
	}
}

func TestStepShrinksCooledFile(t *testing.T) {
	r := mining.NewRanker(0.5)
	observeRound := func() {
		for i := 0; i < 100; i++ {
			r.Observe("/stays-hot")
		}
	}
	observeRound()
	for i := 0; i < 100; i++ {
		r.Observe("/was-hot")
	}
	m := NewManager(r, Config{T1Fraction: 0.25})
	p := newFakePlacer(4)
	m.Step(p)
	if len(p.Holders("/was-hot")) != 4 {
		t.Fatalf("setup: file should be fully replicated, got %v", p.Holders("/was-hot"))
	}
	// /was-hot stops being requested while /stays-hot keeps its traffic.
	// Decay sinks /was-hot through the bands until its replicas vanish.
	for i := 0; i < 8; i++ {
		observeRound()
		m.Step(p)
	}
	if got := p.Holders("/was-hot"); len(got) != 0 {
		t.Fatalf("cooled file still has replicas: %v", got)
	}
	if got := p.Holders("/stays-hot"); len(got) != 4 {
		t.Fatalf("hot file should stay replicated: %v", got)
	}
	if p.drops == 0 {
		t.Fatal("drops should have happened")
	}
}

func TestFileFallingOffTableLosesReplicas(t *testing.T) {
	r := mining.NewRanker(0.5)
	for i := 0; i < 100; i++ {
		r.Observe("/gone")
	}
	m := NewManager(r, Config{T1Fraction: 0.25})
	p := newFakePlacer(4)
	m.Step(p)
	if len(p.Holders("/gone")) == 0 {
		t.Fatal("setup: /gone should have replicas")
	}
	// Decay /gone out of the rank table entirely (counts < 0.01 are
	// dropped); the manager must reclaim its replicas.
	for i := 0; i < 20; i++ {
		m.Step(p)
	}
	if got := p.Holders("/gone"); len(got) != 0 {
		t.Fatalf("table-absent file keeps replicas: %v", got)
	}
}

func TestStepNoChangeBandPreservesReplicas(t *testing.T) {
	r := mining.NewRanker(1)
	for i := 0; i < 20; i++ {
		r.Observe("/mid")
	}
	for i := 0; i < 80; i++ {
		r.Observe("/hot")
	}
	m := NewManager(r, Config{T1Fraction: 0.5}) // T1 = 50
	p := newFakePlacer(4)
	// Pre-place replicas for /mid beyond what its band would assign.
	p.Replicate("/mid", 0)
	p.Replicate("/mid", 1)
	p.Replicate("/mid", 2)
	p.pushes = 0
	m.Step(p)
	// /mid count 20 is in (T1/8=6.25, T1/4=12.5]? No: 20 > 12.5, so it is
	// in the (T1/4, T1/2] half band -> degree 2: one replica dropped.
	if got := p.Holders("/mid"); len(got) != 2 {
		t.Fatalf("/mid holders = %v, want trimmed to 2", got)
	}
}

func TestStepNoChangeExactBand(t *testing.T) {
	r := mining.NewRanker(1)
	for i := 0; i < 10; i++ {
		r.Observe("/nc")
	}
	for i := 0; i < 90; i++ {
		r.Observe("/hot")
	}
	// T1 = 50; /nc count 10 in (6.25, 12.5] -> NO_CHANGE.
	m := NewManager(r, Config{T1Fraction: 0.5})
	p := newFakePlacer(4)
	p.Replicate("/nc", 3)
	p.pushes = 0
	m.Step(p)
	if got := p.Holders("/nc"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("NO_CHANGE band must not touch /nc: %v", got)
	}
}

func TestStepEmptyTable(t *testing.T) {
	m := NewManager(mining.NewRanker(0.5), Config{})
	if got := m.Step(newFakePlacer(4)); got != 0 {
		t.Fatalf("empty table pushed %d", got)
	}
}

func TestConvergeDeterministicSpread(t *testing.T) {
	// Different files starting from different hash offsets should not all
	// pile their first replica on server 0.
	r := mining.NewRanker(1)
	for f := 0; f < 16; f++ {
		for i := 0; i < 100; i++ {
			r.Observe(fmt.Sprintf("/f%d", f))
		}
	}
	m := NewManager(r, Config{T1Fraction: 0.001}) // everything replicates to half+
	p := newFakePlacer(8)
	m.Step(p)
	// All files exceed T1 -> full replication; fine. Now check the
	// deterministic repeatability instead: a second placer gets the same
	// placement.
	r2 := mining.NewRanker(1)
	for f := 0; f < 16; f++ {
		for i := 0; i < 100; i++ {
			r2.Observe(fmt.Sprintf("/f%d", f))
		}
	}
	p2 := newFakePlacer(8)
	NewManager(r2, Config{T1Fraction: 0.001}).Step(p2)
	for f := 0; f < 16; f++ {
		key := fmt.Sprintf("/f%d", f)
		a, b := p.Holders(key), p2.Holders(key)
		if len(a) != len(b) {
			t.Fatalf("placements differ for %s: %v vs %v", key, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("placements differ for %s: %v vs %v", key, a, b)
			}
		}
	}
}

func TestMaxFilesCap(t *testing.T) {
	r := mining.NewRanker(1)
	for f := 0; f < 100; f++ {
		r.Observe(fmt.Sprintf("/f%02d", f))
	}
	m := NewManager(r, Config{T1Fraction: 0.0001, MaxFiles: 10})
	p := newFakePlacer(2)
	m.Step(p)
	count := 0
	for f := 0; f < 100; f++ {
		if len(p.Holders(fmt.Sprintf("/f%02d", f))) > 0 {
			count++
		}
	}
	if count > 10 {
		t.Fatalf("MaxFiles cap ignored: %d files replicated", count)
	}
}

func TestNilRankerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager(nil, Config{})
}

// BenchmarkManagerStep is Algorithm 3's tick at the simulator's shape: a
// rank table of 3000 files of which the 64 hottest are examined. Decay
// 1 keeps the table the same size from tick to tick.
func BenchmarkManagerStep(b *testing.B) {
	r := mining.NewRanker(1)
	for f := 0; f < 3000; f++ {
		path := fmt.Sprintf("/f%04d", f)
		for n := 3000 / (f + 1); n >= 0; n-- {
			r.Observe(path)
		}
	}
	m := NewManager(r, Config{T1Fraction: 0.05, MaxFiles: 64})
	p := newFakePlacer(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(p)
	}
}
