package mining

import (
	"slices"
	"strings"
	"testing"

	"prord/internal/trace"
)

func TestBuildLinkGraph(t *testing.T) {
	tr := seqTrace(
		[]string{"A", "B", "C"},
		[]string{"A", "C"},
		[]string{"B", "B"}, // self-transition must be ignored
	)
	g := BuildLinkGraph(tr)
	if got := g.Links("A"); len(got) != 2 || got[0] != "B" || got[1] != "C" {
		t.Fatalf("Links(A) = %v, want [B C]", got)
	}
	if got := g.Links("B"); len(got) != 1 || got[0] != "C" {
		t.Fatalf("Links(B) = %v, want [C]", got)
	}
	if got := g.Links("C"); len(got) != 0 {
		t.Fatalf("Links(C) = %v, want empty", got)
	}
	pages := g.Pages()
	if len(pages) != 2 || pages[0] != "A" || pages[1] != "B" {
		t.Fatalf("Pages = %v, want [A B]", pages)
	}
}

func TestLinkGraphSkipsEmbedded(t *testing.T) {
	tr := seqTrace([]string{"A", "IMG", "B"})
	tr.Requests[1].Embedded = true
	tr.Requests[1].Parent = "A"
	g := BuildLinkGraph(tr)
	if got := g.Links("A"); len(got) != 1 || got[0] != "B" {
		t.Fatalf("Links(A) = %v, want [B] (embedded skipped)", got)
	}
}

func TestMakeCandidatePathsOrder1(t *testing.T) {
	tr := seqTrace([]string{"A", "B"}, []string{"A", "C"}, []string{"B", "C"})
	g := BuildLinkGraph(tr)
	cp := MakeCandidatePaths(g, 1)
	if got := cp.Paths("B"); len(got) != 1 || got[0] != "A" {
		t.Fatalf("Paths(B) = %v, want [A]", got)
	}
	if got := cp.Paths("C"); len(got) != 2 {
		t.Fatalf("Paths(C) = %v, want paths from A and B", got)
	}
	if cp.Total() != 3 {
		t.Fatalf("Total = %d, want 3", cp.Total())
	}
}

func TestMakeCandidatePathsOrder2(t *testing.T) {
	// A->B->C chain: order-2 candidate path for C is "A|B".
	tr := seqTrace([]string{"A", "B", "C"})
	g := BuildLinkGraph(tr)
	cp := MakeCandidatePaths(g, 2)
	if got := cp.Paths("C"); len(got) != 1 || got[0] != "A"+ctxSep+"B" {
		t.Fatalf("Paths(C) = %v, want [A|B]", got)
	}
	if cp.Order != 2 {
		t.Fatalf("Order = %d, want 2", cp.Order)
	}
}

func TestCandidatePathsGrowWithOrder(t *testing.T) {
	// Paper §4.1.1-i: storage grows with order. Build a denser graph and
	// check monotone growth of stored paths.
	tr := seqTrace(
		[]string{"A", "B", "C", "D"},
		[]string{"A", "C", "B", "D"},
		[]string{"B", "A", "D", "C"},
		[]string{"D", "A", "B"},
	)
	g := BuildLinkGraph(tr)
	t1 := MakeCandidatePaths(g, 1).Total()
	t2 := MakeCandidatePaths(g, 2).Total()
	t3 := MakeCandidatePaths(g, 3).Total()
	if !(t1 <= t2 && t2 <= t3) {
		t.Fatalf("path counts should grow with order: %d, %d, %d", t1, t2, t3)
	}
	if t2 <= t1 {
		t.Fatalf("order-2 should store strictly more paths here: %d vs %d", t2, t1)
	}
}

// TestModelContextsAreCandidatePaths holds the trained n-order model to
// Algorithm 1 as an oracle: every order-2 (context, next) pair the model
// counts is a path of MakeCandidatePaths over the same trace's link
// graph. The generated traces have no reloads; a log with one can break
// the inclusion, because BuildLinkGraph skips a page requested twice in
// a row and ObserveSequence counts the repeat.
func TestModelContextsAreCandidatePaths(t *testing.T) {
	for _, p := range []trace.Preset{trace.PresetCS, trace.PresetWorldCup, trace.PresetSynthetic} {
		_, tr, err := trace.GeneratePreset(p, 0.05, 42)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(2)
		m.Train(tr)
		cp := MakeCandidatePaths(BuildLinkGraph(tr), 2)
		pairs := 0
		for key, cs := range m.ctx {
			if strings.Count(key, ctxSep) != 1 {
				continue // an order-1 context
			}
			for next := range cs.next {
				pairs++
				if _, found := slices.BinarySearch(cp.Paths(next), key); !found {
					t.Errorf("%s: the model counts %s -> %s, which is no candidate path of Algorithm 1", p, key, next)
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%s: the model has no order-2 pairs, so the inclusion holds vacuously", p)
		}
		t.Logf("%s: %d order-2 pairs", p, pairs)
	}
}

func TestDGWindowCounting(t *testing.T) {
	d := NewDG(2)
	d.ObserveSequence([]string{"A", "B", "C"})
	// Window 2: A sees B and C; B sees C.
	p, ok := d.Predict([]string{"A"})
	if !ok {
		t.Fatal("DG should predict from A")
	}
	if p.Page != "B" && p.Page != "C" {
		t.Fatalf("Predict(A) = %+v, want B or C", p)
	}
	if p.Confidence != 1 {
		t.Fatalf("both successors seen once per single access of A: conf=%v, want 1", p.Confidence)
	}
	if d.Arcs() != 3 {
		t.Fatalf("Arcs = %d, want 3 (A->B, A->C, B->C)", d.Arcs())
	}
}

func TestDGFirstOrderOnly(t *testing.T) {
	d := NewDG(1)
	d.ObserveSequence([]string{"A", "D", "C"})
	d.ObserveSequence([]string{"B", "D", "E"})
	d.ObserveSequence([]string{"B", "D", "E"})
	// DG ignores how D was reached.
	p, ok := d.Predict([]string{"A", "D"})
	if !ok || p.Page != "E" {
		t.Fatalf("DG should predict E regardless of path, got %+v ok=%v", p, ok)
	}
}

func TestDGNoPrediction(t *testing.T) {
	d := NewDG(1)
	if _, ok := d.Predict([]string{"X"}); ok {
		t.Fatal("unknown page should not predict")
	}
	if _, ok := d.Predict(nil); ok {
		t.Fatal("empty context should not predict")
	}
}

func TestDGTrainOnTrace(t *testing.T) {
	tr := seqTrace([]string{"A", "B"}, []string{"A", "B"}, []string{"A", "C"})
	d := NewDG(1)
	d.Train(tr)
	p, ok := d.Predict([]string{"A"})
	if !ok || p.Page != "B" {
		t.Fatalf("Predict(A) = %+v ok=%v, want B", p, ok)
	}
	want := 2.0 / 3.0
	if p.Confidence < want-0.001 || p.Confidence > want+0.001 {
		t.Fatalf("Confidence = %v, want %v", p.Confidence, want)
	}
}

func TestModelBeatsDGOnContextualWorkload(t *testing.T) {
	// Second-order structure that first-order DG cannot capture.
	var m Predictor = NewModel(2)
	var d Predictor = NewDG(1)
	seqs := [][]string{}
	for i := 0; i < 10; i++ {
		seqs = append(seqs, []string{"A", "D", "C"}, []string{"B", "D", "E"})
	}
	trn := seqTrace(seqs...)
	m.Train(trn)
	d.Train(trn)
	score := func(p Predictor) int {
		correct := 0
		if pr, ok := p.Predict([]string{"A", "D"}); ok && pr.Page == "C" {
			correct++
		}
		if pr, ok := p.Predict([]string{"B", "D"}); ok && pr.Page == "E" {
			correct++
		}
		return correct
	}
	if score(m) != 2 {
		t.Fatalf("order-2 model should get both contexts right, got %d", score(m))
	}
	if score(d) == 2 {
		t.Fatal("first-order DG should not disambiguate both contexts")
	}
}
