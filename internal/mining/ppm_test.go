package mining

import (
	"testing"

	"prord/internal/trace"
)

func TestPPMSingleContext(t *testing.T) {
	p := NewPPM(2)
	for i := 0; i < 4; i++ {
		p.ObserveSequence([]string{"A", "B"})
	}
	pred, ok := p.Predict([]string{"A"})
	if !ok || pred.Page != "B" {
		t.Fatalf("Predict(A) = %+v ok=%v", pred, ok)
	}
	if pred.Confidence <= 0.5 || pred.Confidence > 1 {
		t.Fatalf("confidence %v out of range", pred.Confidence)
	}
}

func TestPPMBlendsOrders(t *testing.T) {
	// Context [X A] seen once with continuation C; context [A] seen many
	// times with continuation B. Pure longest-match predicts C; PPM's
	// escape weighting should let the well-supported order-1 statistics
	// dominate the singleton order-2 context.
	p := NewPPM(2)
	p.ObserveSequence([]string{"X", "A", "C"})
	for i := 0; i < 50; i++ {
		p.ObserveSequence([]string{"Y", "A", "B"})
	}
	pred, ok := p.Predict([]string{"X", "A"})
	if !ok {
		t.Fatal("no prediction")
	}
	if pred.Page != "C" && pred.Page != "B" {
		t.Fatalf("unexpected page %q", pred.Page)
	}
	// The plain model's longest match answers C with confidence 1; PPM
	// must be more conservative.
	m := NewModel(2)
	m.ObserveSequence([]string{"X", "A", "C"})
	for i := 0; i < 50; i++ {
		m.ObserveSequence([]string{"Y", "A", "B"})
	}
	mp, _ := m.Predict([]string{"X", "A"})
	if mp.Page != "C" || mp.Confidence != 1 {
		t.Fatalf("plain model sanity: %+v", mp)
	}
	if pred.Page == "C" && pred.Confidence >= 0.95 {
		t.Fatalf("PPM should discount the singleton context: %+v", pred)
	}
}

func TestPPMNoPrediction(t *testing.T) {
	p := NewPPM(2)
	if _, ok := p.Predict([]string{"unknown"}); ok {
		t.Fatal("unknown context should not predict")
	}
	if _, ok := p.Predict(nil); ok {
		t.Fatal("empty context should not predict")
	}
}

func TestPPMConfidenceNormalized(t *testing.T) {
	p := NewPPM(3)
	p.ObserveSequence([]string{"A", "B", "C", "D"})
	p.ObserveSequence([]string{"A", "B", "D", "C"})
	p.ObserveSequence([]string{"B", "C", "A"})
	for _, ctx := range [][]string{{"A"}, {"A", "B"}, {"B", "C"}, {"A", "B", "C"}} {
		if pred, ok := p.Predict(ctx); ok {
			if pred.Confidence <= 0 || pred.Confidence > 1 {
				t.Fatalf("ctx %v: confidence %v out of (0,1]", ctx, pred.Confidence)
			}
		}
	}
}

func TestPPMTrainOnTrace(t *testing.T) {
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 0.05, 21)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.5)
	p := NewPPM(2)
	p.Train(train)
	acc := predictorAccuracyForTest(p, eval)
	if acc < 0.15 {
		t.Fatalf("PPM accuracy %v too low", acc)
	}
}

// predictorAccuracyForTest mirrors the experiment package's scorer.
func predictorAccuracyForTest(pred Predictor, tr *trace.Trace) float64 {
	var total, correct int
	for _, sess := range tr.Sessions() {
		var pages []string
		for _, i := range sess.Reqs {
			if r := &tr.Requests[i]; !r.Embedded {
				pages = append(pages, r.Path)
			}
		}
		for i := 1; i < len(pages); i++ {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			p, ok := pred.Predict(pages[lo:i])
			if !ok {
				continue
			}
			total++
			if p.Page == pages[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func TestSeqRulesContiguousAndGapped(t *testing.T) {
	s := NewSeqRules(3)
	// "A then (later) C, currently at C" -> D; contiguous B->C -> D too.
	s.ObserveSequence([]string{"A", "B", "C", "D"})
	s.ObserveSequence([]string{"A", "X", "C", "D"})
	s.ObserveSequence([]string{"Q", "C", "E"})
	// With A in history, the gapped rule (A..C -> D) fires.
	p, ok := s.Predict([]string{"A", "Z", "C"})
	if !ok || p.Page != "D" || p.Order != 2 {
		t.Fatalf("gapped prediction = %+v ok=%v, want D at order 2", p, ok)
	}
	if p.Confidence != 1 {
		t.Fatalf("confidence = %v, want 1 (both A..C continuations are D)", p.Confidence)
	}
}

func TestSeqRulesFallbackToUnigram(t *testing.T) {
	s := NewSeqRules(2)
	s.ObserveSequence([]string{"A", "B"})
	s.ObserveSequence([]string{"A", "B"})
	// No pair history matches context [Z A]; unigram A->B fires.
	p, ok := s.Predict([]string{"Z", "A"})
	if !ok || p.Page != "B" || p.Order != 1 {
		t.Fatalf("fallback = %+v ok=%v", p, ok)
	}
}

func TestSeqRulesGapBound(t *testing.T) {
	s := NewSeqRules(0) // contiguous only
	s.ObserveSequence([]string{"A", "G", "C", "D"})
	// A and C are separated by one page: with maxGap 0 the pair rule
	// (A..C) must NOT exist.
	if _, ok := s.Predict([]string{"A", "C"}); ok {
		if p, _ := s.Predict([]string{"A", "C"}); p.Order == 2 {
			t.Fatalf("gap-0 matcher fired a gapped rule: %+v", p)
		}
	}
	if s.Rules() != 2 { // (A,G)->C and (G,C)->D
		t.Fatalf("Rules = %d, want 2", s.Rules())
	}
}

func TestSeqRulesNoPrediction(t *testing.T) {
	s := NewSeqRules(2)
	if _, ok := s.Predict(nil); ok {
		t.Fatal("empty context should not predict")
	}
	if _, ok := s.Predict([]string{"unknown"}); ok {
		t.Fatal("unknown page should not predict")
	}
}

func TestSeqRulesCapturesHabitsContiguousModelsMiss(t *testing.T) {
	// Users who visited P (pricing) always end at S (signup) after the
	// hub H, whatever they browsed in between; users without P leave to L.
	seqs := [][]string{
		{"P", "x1", "H", "S"},
		{"P", "x2", "H", "S"},
		{"P", "x3", "H", "S"},
		{"q1", "H", "L"},
		{"q2", "H", "L"},
		{"q3", "H", "L"},
		{"q4", "H", "L"},
	}
	s := NewSeqRules(3)
	m := NewModel(2)
	for _, q := range seqs {
		s.ObserveSequence(q)
		m.ObserveSequence(q)
	}
	// At H having passed P (with an interposed page): seq rules say S.
	p, ok := s.Predict([]string{"P", "x9", "H"})
	if !ok || p.Page != "S" {
		t.Fatalf("seq rules = %+v ok=%v, want S", p, ok)
	}
	// The order-2 model sees context [x9 H] (unseen) and backs off to
	// [H], whose majority continuation is L.
	mp, ok := m.Predict([]string{"P", "x9", "H"})
	if !ok || mp.Page != "L" {
		t.Fatalf("contiguous model = %+v ok=%v, expected it to miss with L", mp, ok)
	}
}

func TestMinerPredictorSelection(t *testing.T) {
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 0.03, 55)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"model", "ppm", "seqrules", "dg"} {
		m := Mine(full, Options{Predictor: name})
		if m.Nav == nil {
			t.Fatalf("%s: no Nav predictor", name)
		}
		switch name {
		case "model":
			if m.Nav != OnlinePredictor(m.Model) {
				t.Fatal("default predictor should be the model itself")
			}
		case "ppm":
			if _, ok := m.Nav.(*PPM); !ok {
				t.Fatalf("Nav = %T, want *PPM", m.Nav)
			}
		case "seqrules":
			if _, ok := m.Nav.(*SeqRules); !ok {
				t.Fatalf("Nav = %T, want *SeqRules", m.Nav)
			}
		case "dg":
			if _, ok := m.Nav.(*DG); !ok {
				t.Fatalf("Nav = %T, want *DG", m.Nav)
			}
		}
		// Whatever the choice, it must have learned something.
		if _, ok := m.Nav.Predict([]string{full.Requests[0].Path}); !ok {
			// Not all first paths predict; try a few.
			predicted := false
			for i := 0; i < 50 && i < len(full.Requests); i++ {
				if _, ok := m.Nav.Predict([]string{full.Requests[i].Path}); ok {
					predicted = true
					break
				}
			}
			if !predicted {
				t.Fatalf("%s: trained predictor never predicts", name)
			}
		}
	}
	// Unknown names fall back to the default.
	m := Mine(full, Options{Predictor: "nope"})
	if m.Options.Predictor != "model" {
		t.Fatalf("unknown predictor should default, got %q", m.Options.Predictor)
	}
}

func TestTrackerWithAlternatePredictors(t *testing.T) {
	for _, nav := range []OnlinePredictor{NewPPM(2), NewSeqRules(2), NewDG(2)} {
		tr := NewTracker(nav, true)
		for i := 0; i < 5; i++ {
			conn := 10 + i
			tr.Observe(conn, "A")
			tr.Observe(conn, "B")
			tr.Close(conn)
		}
		if p, ok := nav.Predict([]string{"A"}); !ok || p.Page != "B" {
			t.Fatalf("%T: online learning failed: %+v ok=%v", nav, p, ok)
		}
	}
}
