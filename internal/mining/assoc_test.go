package mining

import (
	"testing"

	"prord/internal/trace"
)

func TestAssocBasicRules(t *testing.T) {
	// Pages A and B co-occur in 4 of 5 sessions; A and C in 1.
	a := NewAssoc(2)
	a.Train(seqTrace(
		[]string{"A", "B"},
		[]string{"A", "B"},
		[]string{"B", "A"},
		[]string{"A", "B"},
		[]string{"A", "C"},
	))
	if a.Sessions() != 5 {
		t.Fatalf("Sessions = %d", a.Sessions())
	}
	if a.Rules() == 0 {
		t.Fatal("no rules mined")
	}
	p, ok := a.Predict([]string{"A"})
	if !ok || p.Page != "B" {
		t.Fatalf("Predict(A) = %+v ok=%v, want B", p, ok)
	}
	// Confidence = sup(AB)/sup(A) = 4/5.
	if p.Confidence != 0.8 {
		t.Fatalf("Confidence = %v, want 0.8", p.Confidence)
	}
}

func TestAssocOrderInsensitive(t *testing.T) {
	// Association rules ignore visit order — the structural difference
	// from sequence models (§2.2.3).
	a := NewAssoc(2)
	a.Train(seqTrace(
		[]string{"X", "Y"},
		[]string{"Y", "X"},
		[]string{"X", "Y"},
	))
	p1, ok1 := a.Predict([]string{"X"})
	p2, ok2 := a.Predict([]string{"Y"})
	if !ok1 || !ok2 {
		t.Fatal("both directions should predict")
	}
	if p1.Page != "Y" || p2.Page != "X" {
		t.Fatalf("bidirectional rules expected: %+v %+v", p1, p2)
	}
	if p1.Confidence != 1 || p2.Confidence != 1 {
		t.Fatalf("confidence should be 1 both ways: %v %v", p1.Confidence, p2.Confidence)
	}
}

func TestAssocMinSupportFilters(t *testing.T) {
	a := NewAssoc(3)
	a.Train(seqTrace(
		[]string{"A", "B"},
		[]string{"A", "B"},
		[]string{"A", "C"}, // AC appears once: below support 3
		[]string{"A", "B"},
	))
	if p, ok := a.Predict([]string{"A"}); !ok || p.Page != "B" {
		t.Fatalf("Predict(A) = %+v, want B", p)
	}
	// C must never be predicted: the AC pair is infrequent.
	for key, rules := range a.byAntecedent {
		for _, r := range rules {
			if r.Consequent == "C" {
				t.Fatalf("infrequent rule stored under %q: %+v", key, r)
			}
		}
	}
}

func TestAssocTwoItemAntecedent(t *testing.T) {
	// {A, B} -> C needs the triple to be frequent.
	var sessions [][]string
	for i := 0; i < 5; i++ {
		sessions = append(sessions, []string{"A", "B", "C"})
	}
	// And A alone also co-occurs with D, to give the 1-antecedent rule a
	// competing consequent.
	for i := 0; i < 6; i++ {
		sessions = append(sessions, []string{"A", "D"})
	}
	a := NewAssoc(3)
	a.Train(seqTrace(sessions...))
	// With both A and B in the window, the specific 2-page rule wins.
	p, ok := a.Predict([]string{"A", "B"})
	if !ok || p.Page != "C" || p.Order != 2 {
		t.Fatalf("Predict(A,B) = %+v ok=%v, want C at order 2", p, ok)
	}
	// With only A, the more frequent AD rule fires.
	p1, _ := a.Predict([]string{"A"})
	if p1.Page != "D" {
		t.Fatalf("Predict(A) = %+v, want D", p1)
	}
}

func TestAssocDoesNotPredictWindowPages(t *testing.T) {
	a := NewAssoc(2)
	a.Train(seqTrace([]string{"A", "B"}, []string{"A", "B"}))
	if p, ok := a.Predict([]string{"A", "B"}); ok {
		t.Fatalf("nothing outside the window should remain, got %+v", p)
	}
}

func TestAssocEmptyAndUnknown(t *testing.T) {
	a := NewAssoc(2)
	a.Train(seqTrace([]string{"A", "B"}, []string{"A", "B"}))
	if _, ok := a.Predict(nil); ok {
		t.Fatal("empty window should not predict")
	}
	if _, ok := a.Predict([]string{"unknown"}); ok {
		t.Fatal("unknown page should not predict")
	}
}

func TestAssocSkipsEmbedded(t *testing.T) {
	tr := seqTrace([]string{"A", "B"}, []string{"A", "B"}, []string{"A", "B"})
	tr.Requests[1].Embedded = true
	tr.Requests[1].Parent = "A"
	a := NewAssoc(2)
	a.Train(tr)
	// B appeared as a page in only 2 sessions alongside A.
	p, ok := a.Predict([]string{"A"})
	if !ok || p.Page != "B" {
		t.Fatalf("Predict(A) = %+v ok=%v", p, ok)
	}
	if p.Confidence != 2.0/3.0 {
		t.Fatalf("Confidence = %v, want 2/3", p.Confidence)
	}
}

func TestSequenceModelBeatsAssocOnDirectionalWorkload(t *testing.T) {
	// [21]'s finding: sequence rules beat association rules for next-page
	// prediction, because association rules cannot tell A->B from B->A.
	// Sessions always visit A then Z then B; predicting "after A comes Z"
	// is trivial for the sequence model, while association rules see
	// {A, B, Z} as one unordered basket.
	var sessions [][]string
	for i := 0; i < 10; i++ {
		sessions = append(sessions, []string{"A", "Z", "B"})
	}
	tr := seqTrace(sessions...)

	model := NewModel(2)
	model.Train(tr)
	pm, ok := model.Predict([]string{"A"})
	if !ok || pm.Page != "Z" || pm.Confidence != 1 {
		t.Fatalf("sequence model should predict Z with certainty, got %+v", pm)
	}

	assoc := NewAssoc(2)
	assoc.Train(tr)
	pa, ok := assoc.Predict([]string{"A"})
	if !ok {
		t.Fatal("assoc should fire")
	}
	// The association model cannot prefer Z over B: both co-occur with A
	// in every session (confidence 1 for both); it breaks the tie
	// lexicographically and guesses B.
	if pa.Page != "B" {
		t.Fatalf("assoc tie-break expected B, got %+v", pa)
	}
}

func TestAssocOnGeneratedTrace(t *testing.T) {
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.5)
	a := NewAssoc(3)
	a.Train(train)
	if a.Rules() == 0 {
		t.Fatal("no rules on a real-shaped trace")
	}
	// It should achieve nonzero accuracy, below the order-2 model's.
	accuracy := func(p Predictor) float64 {
		var total, correct int
		for _, sess := range eval.Sessions() {
			var pages []string
			for _, i := range sess.Reqs {
				if r := &eval.Requests[i]; !r.Embedded {
					pages = append(pages, r.Path)
				}
			}
			for i := 1; i < len(pages); i++ {
				lo := i - 2
				if lo < 0 {
					lo = 0
				}
				pred, ok := p.Predict(pages[lo:i])
				if !ok {
					continue
				}
				total++
				if pred.Page == pages[i] {
					correct++
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(correct) / float64(total)
	}
	m := NewModel(2)
	m.Train(train)
	accAssoc, accModel := accuracy(a), accuracy(m)
	if accAssoc <= 0.05 {
		t.Fatalf("assoc accuracy %v too low to be useful", accAssoc)
	}
	if accModel <= accAssoc {
		t.Fatalf("sequence model (%v) should beat association rules (%v) — [21]",
			accModel, accAssoc)
	}
}
