package mining

import (
	"strings"
	"testing"
	"testing/quick"

	"prord/internal/randutil"
	"prord/internal/trace"
)

// seqTrace builds a trace from explicit per-session page sequences; sizes
// are uniform 1 KB.
func seqTrace(sessions ...[]string) *trace.Trace {
	t := &trace.Trace{Name: "seq", Files: make(map[string]int64)}
	for sid, pages := range sessions {
		for _, p := range pages {
			t.Files[p] = 1024
			t.Requests = append(t.Requests, trace.Request{
				Session: sid,
				Client:  "c",
				Path:    p,
				Size:    1024,
			})
		}
	}
	return t
}

func TestModelPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel(0) should panic")
		}
	}()
	NewModel(0)
}

func TestModelFirstOrderPrediction(t *testing.T) {
	m := NewModel(1)
	// A -> B 3 times, A -> C once.
	m.ObserveSequence([]string{"A", "B"})
	m.ObserveSequence([]string{"A", "B"})
	m.ObserveSequence([]string{"A", "B"})
	m.ObserveSequence([]string{"A", "C"})
	p, ok := m.Predict([]string{"A"})
	if !ok || p.Page != "B" {
		t.Fatalf("Predict = %+v ok=%v, want B", p, ok)
	}
	if p.Confidence != 0.75 {
		t.Fatalf("Confidence = %v, want 0.75", p.Confidence)
	}
	if p.Order != 1 {
		t.Fatalf("Order = %d, want 1", p.Order)
	}
}

func TestModelSecondOrderDisambiguates(t *testing.T) {
	// Fig. 3's scenario: page D is reached from two different groups; the
	// continuation depends on how D was reached. Sequences starting at A
	// go D->C (70%), those starting at B go D->E (60%).
	m := NewModel(2)
	for i := 0; i < 7; i++ {
		m.ObserveSequence([]string{"A", "D", "C"})
	}
	for i := 0; i < 3; i++ {
		m.ObserveSequence([]string{"A", "D", "X"})
	}
	for i := 0; i < 6; i++ {
		m.ObserveSequence([]string{"B", "D", "E"})
	}
	for i := 0; i < 4; i++ {
		m.ObserveSequence([]string{"B", "D", "Y"})
	}
	pa, ok := m.Predict([]string{"A", "D"})
	if !ok || pa.Page != "C" || pa.Order != 2 {
		t.Fatalf("context [A D]: %+v ok=%v, want C at order 2", pa, ok)
	}
	if pa.Confidence < 0.69 || pa.Confidence > 0.71 {
		t.Fatalf("context [A D] confidence = %v, want 0.7", pa.Confidence)
	}
	pb, ok := m.Predict([]string{"B", "D"})
	if !ok || pb.Page != "E" {
		t.Fatalf("context [B D]: %+v ok=%v, want E", pb, ok)
	}
	// A first-order model cannot disambiguate: it sees D->C 7, D->E 6...
	m1 := NewModel(1)
	for i := 0; i < 7; i++ {
		m1.ObserveSequence([]string{"A", "D", "C"})
	}
	for i := 0; i < 6; i++ {
		m1.ObserveSequence([]string{"B", "D", "E"})
	}
	p1, _ := m1.Predict([]string{"B", "D"})
	if p1.Page != "C" {
		t.Fatalf("order-1 model should collapse contexts and predict C, got %s", p1.Page)
	}
}

func TestModelBackoffToShorterContext(t *testing.T) {
	m := NewModel(3)
	m.ObserveSequence([]string{"A", "B", "C"})
	// Context [Z B] unseen at order 2, must back off to [B] -> C.
	p, ok := m.Predict([]string{"Z", "B"})
	if !ok || p.Page != "C" || p.Order != 1 {
		t.Fatalf("backoff failed: %+v ok=%v", p, ok)
	}
}

func TestModelNoPrediction(t *testing.T) {
	m := NewModel(2)
	m.ObserveSequence([]string{"A", "B"})
	if _, ok := m.Predict([]string{"unknown"}); ok {
		t.Fatal("unknown context should not predict")
	}
	if _, ok := m.Predict(nil); ok {
		t.Fatal("empty context should not predict")
	}
}

func TestModelPredictAllSorted(t *testing.T) {
	m := NewModel(1)
	m.ObserveSequence([]string{"A", "B"})
	m.ObserveSequence([]string{"A", "B"})
	m.ObserveSequence([]string{"A", "C"})
	all := m.PredictAll([]string{"A"})
	if len(all) != 2 || all[0].Page != "B" || all[1].Page != "C" {
		t.Fatalf("PredictAll = %+v", all)
	}
	sum := all[0].Confidence + all[1].Confidence
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("confidences sum to %v, want 1", sum)
	}
}

func TestModelConfidenceInRangeProperty(t *testing.T) {
	f := func(seqs [][]byte) bool {
		m := NewModel(2)
		var pages [][]string
		for _, s := range seqs {
			var seq []string
			for _, b := range s {
				seq = append(seq, string('a'+rune(b%8)))
			}
			if len(seq) > 0 {
				pages = append(pages, seq)
				m.ObserveSequence(seq)
			}
		}
		for _, seq := range pages {
			for i := 1; i <= len(seq); i++ {
				if p, ok := m.Predict(seq[:i]); ok {
					if p.Confidence <= 0 || p.Confidence > 1 {
						return false
					}
					if p.Order < 1 || p.Order > 2 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelTrainSkipsEmbedded(t *testing.T) {
	tr := seqTrace([]string{"A", "B"})
	tr.Requests[1].Embedded = true
	tr.Requests[1].Parent = "A"
	m := NewModel(2)
	m.Train(tr)
	if m.Observations() != 0 {
		t.Fatalf("embedded requests must not create transitions, got %d", m.Observations())
	}
}

func TestModelAccessedCounts(t *testing.T) {
	m := NewModel(1)
	m.ObserveSequence([]string{"A", "B", "A"})
	if m.Accessed("A") != 2 || m.Accessed("B") != 1 {
		t.Fatalf("Accessed A=%d B=%d, want 2, 1", m.Accessed("A"), m.Accessed("B"))
	}
}

func TestTrackerWindowing(t *testing.T) {
	m := NewModel(2)
	m.ObserveSequence([]string{"A", "B", "C"})
	tr := NewTracker(m, false)
	tr.Observe(1, "X")
	tr.Observe(1, "A")
	tr.Observe(1, "B")
	recent := tr.Recent(1)
	if len(recent) != 2 || recent[0] != "A" || recent[1] != "B" {
		t.Fatalf("Recent = %v, want [A B] (window of order 2)", recent)
	}
	p, ok := m.Predict(recent)
	if !ok || p.Page != "C" {
		t.Fatalf("prediction from tracked state = %+v ok=%v", p, ok)
	}
}

func TestTrackerOnlineLearning(t *testing.T) {
	m := NewModel(2)
	tr := NewTracker(m, true)
	for i := 0; i < 5; i++ {
		conn := 100 + i
		tr.Observe(conn, "A")
		tr.Observe(conn, "B")
		tr.Close(conn)
	}
	if tr.Connections() != 0 {
		t.Fatalf("Connections = %d after Close, want 0", tr.Connections())
	}
	p, ok := m.Predict([]string{"A"})
	if !ok || p.Page != "B" {
		t.Fatalf("online-learned prediction = %+v ok=%v, want B", p, ok)
	}
}

func TestTrackerIsolatesConnections(t *testing.T) {
	m := NewModel(2)
	m.ObserveSequence([]string{"A", "B"})
	m.ObserveSequence([]string{"C", "D"})
	tr := NewTracker(m, false)
	tr.Observe(1, "A")
	p2, _ := tr.Observe(2, "C")
	p1, _ := m.Predict(tr.Recent(1))
	if p1.Page != "B" || p2.Page != "D" {
		t.Fatalf("connections leaked state: p1=%+v p2=%+v", p1, p2)
	}
}

// TestTrackerWindowReuse checks that a connection opened after a Close
// starts from an empty window, though it reuses the closed one's slice:
// Recent and the predictions see only the new connection's own pages.
// Reopening allocates nothing once a window has been freed.
func TestTrackerWindowReuse(t *testing.T) {
	m := NewModel(2)
	m.ObserveSequence([]string{"A", "B", "C"})
	m.ObserveSequence([]string{"X", "B", "D"})
	m.ObserveSequence([]string{"B", "E"})
	m.ObserveSequence([]string{"B", "E"})
	tr := NewTracker(m, false)
	tr.Observe(1, "A")
	if p, _ := tr.Observe(1, "B"); p.Page != "C" || p.Order != 2 {
		t.Fatalf("setup: prediction after [A B] = %+v, want C at order 2", p)
	}
	tr.Close(1)

	p, ok := tr.Observe(2, "B")
	if got := tr.Recent(2); len(got) != 1 || got[0] != "B" {
		t.Fatalf("Recent of a connection opened after a Close = %v, want [B]", got)
	}
	if !ok || p.Page != "E" || p.Order != 1 {
		t.Fatalf("prediction after [B] = %+v ok=%v, want E at order 1", p, ok)
	}
	tr.Close(2)
	tr.Observe(3, "X")
	if p, _ := tr.Observe(3, "B"); p.Page != "D" || p.Order != 2 {
		t.Fatalf("prediction after [X B] = %+v, want D at order 2", p)
	}
	if got := tr.Recent(3); len(got) != 2 || got[0] != "X" || got[1] != "B" {
		t.Fatalf("Recent = %v, want [X B]", got)
	}
	tr.Close(3)

	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Observe(4, "A")
		tr.Observe(4, "B")
		tr.Close(4)
	})
	if allocs != 0 {
		t.Errorf("a connection opened after a Close allocates %.1f objects, want 0 (its window is reused)", allocs)
	}
}

// TestTrackerObserveAllocs pins a steady-state Observe at zero
// allocations for every online predictor the core tracks with: on a
// warm connection, whose window is full and whose transitions are all
// known, online learning only bumps counters and the prediction's
// context keys are built on the stack. Connection churn past the slab's
// high-water mark allocates nothing either.
func TestTrackerObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	cycle := []string{"/english/index.html", "/english/news/today.html", "/english/teams/bra.html", "/english/scores.html"}
	for _, nav := range []OnlinePredictor{NewModel(2), NewDG(2), NewPPM(2)} {
		nav.ObserveSequence(append(append([]string(nil), cycle...), cycle...))
		tr := NewTracker(nav, true)
		for i := 0; i < 2*len(cycle); i++ {
			tr.Observe(1, cycle[i%len(cycle)])
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := tr.Observe(1, cycle[i%len(cycle)]); !ok {
				t.Fatalf("%T: no prediction on a warm connection", nav)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%T: steady-state Observe allocates %.2f objects, want 0", nav, allocs)
		}

		// Connection churn: once the slab holds a slot for the most
		// connections ever open at once, opening, observing and closing
		// fresh connections reuses freed slots and allocates nothing.
		for conn := 2; conn < 66; conn++ {
			tr.Observe(conn, cycle[0])
		}
		for conn := 2; conn < 66; conn++ {
			tr.Close(conn)
		}
		slots, conn := tr.Slots(), 100
		allocs = testing.AllocsPerRun(1000, func() {
			tr.Observe(conn, cycle[0])
			tr.Observe(conn, cycle[1])
			tr.Close(conn)
			conn++
		})
		if allocs != 0 || tr.Slots() != slots {
			t.Errorf("%T: a fresh connection allocates %.2f objects and leaves %d slots, want 0 and %d", nav, allocs, tr.Slots(), slots)
		}
	}
}

// TestContextLookup checks the allocation-free context lookup against
// the map lookup of the strings.Join key it replaces, for keys inside
// and beyond the stack buffer, found and missing.
func TestContextLookup(t *testing.T) {
	long := "/" + strings.Repeat("deep/", ctxKeyBuf/5) + "page.html"
	cases := []struct {
		name   string
		pages  []string
		spills bool // the key is longer than the stack buffer
	}{
		{"one page", []string{"/a.html"}, false},
		{"two pages", []string{"/a.html", "/b.html"}, false},
		{"key longer than the stack buffer", []string{long, "/b.html"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if spills := len(strings.Join(c.pages, ctxSep)) > ctxKeyBuf; spills != c.spills {
				t.Fatalf("setup: key spills = %v, want %v", spills, c.spills)
			}
			m := NewModel(len(c.pages))
			m.ObserveSequence(append(append([]string(nil), c.pages...), "/next.html"))
			want := m.ctx[strings.Join(c.pages, ctxSep)]
			if want == nil {
				t.Fatal("setup: the trained context is missing")
			}
			if got := m.context(c.pages); got != want {
				t.Errorf("context(%q) = %p, want %p", c.pages, got, want)
			}
			missing := append([]string{"/elsewhere.html"}, c.pages[1:]...)
			if got, want := m.context(missing), m.ctx[strings.Join(missing, ctxSep)]; got != want {
				t.Errorf("context(%q) = %p, want %p", missing, got, want)
			}
		})
	}
}

func TestModelOnGeneratedTrace(t *testing.T) {
	// On a synthetic trace with Determinism 0.65, a trained order-2 model
	// should predict next pages far better than chance.
	site, err := trace.GenerateSite(trace.SiteConfig{
		Pages: 120, Groups: 4, MeanEmbedded: 2, MaxEmbedded: 5,
		MeanPageKB: 5, MaxPageKB: 50, MeanObjectKB: 3, MaxObjectKB: 30,
		LinksPerPage: 5, IntraGroupProb: 0.9, PopTheta: 0.8,
	}, randutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultTraceConfig()
	cfg.Requests = 8000
	tg, err := trace.Generate("t", site, cfg, randutil.New(2))
	if err != nil {
		t.Fatal(err)
	}
	train, eval := tg.Split(0.5)
	m := NewModel(2)
	m.Train(train)

	sessions := eval.Sessions()
	var total, correct int
	for _, sess := range sessions {
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
			p, ok := m.Predict(pages[lo:i])
			if !ok {
				continue
			}
			total++
			if p.Page == pages[i] {
				correct++
			}
		}
	}
	if total < 100 {
		t.Fatalf("too few evaluated predictions: %d", total)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.4 {
		t.Fatalf("prediction accuracy %.2f too low for Determinism=0.65 workload", acc)
	}
}
