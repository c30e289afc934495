package mining

import (
	"bytes"
	"strings"
	"testing"

	"prord/internal/trace"
)

func TestMinerSaveLoadRoundTrip(t *testing.T) {
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 0.05, 77)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.6)
	orig := Mine(train, DefaultOptions())

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Model state round-trips exactly.
	if loaded.Model.Contexts() != orig.Model.Contexts() {
		t.Fatalf("contexts %d != %d", loaded.Model.Contexts(), orig.Model.Contexts())
	}
	if loaded.Model.Observations() != orig.Model.Observations() {
		t.Fatalf("observations %d != %d", loaded.Model.Observations(), orig.Model.Observations())
	}
	// Predictions agree on the evaluation stream.
	agreements, total := 0, 0
	for _, idxs := range eval.Sessions() {
		var pages []string
		for _, i := range idxs {
			if r := &eval.Requests[i]; !r.Embedded {
				pages = append(pages, r.Path)
			}
		}
		for i := 1; i < len(pages) && i < 4; i++ {
			a, okA := orig.Model.Predict(pages[:i])
			b, okB := loaded.Model.Predict(pages[:i])
			if okA != okB {
				t.Fatalf("prediction availability diverged on %v", pages[:i])
			}
			if okA {
				total++
				if a == b {
					agreements++
				}
			}
		}
	}
	if total == 0 || agreements != total {
		t.Fatalf("loaded model agrees on %d/%d predictions", agreements, total)
	}

	// Bundles round-trip (same support filtering).
	for _, page := range orig.Bundles.Pages() {
		a := orig.Bundles.Objects(page)
		b := loaded.Bundles.Objects(page)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("bundle for %s diverged: %v vs %v", page, a, b)
		}
	}

	// Ranker round-trips.
	origTop := orig.Ranker.Top(10)
	loadedTop := loaded.Ranker.Top(10)
	for i := range origTop {
		if origTop[i] != loadedTop[i] {
			t.Fatalf("rank table diverged at %d: %s vs %s", i, origTop[i], loadedTop[i])
		}
	}

	// Categorizer round-trips (classification agreement).
	if orig.Categorizer == nil || loaded.Categorizer == nil {
		t.Fatal("categorizer should survive the round trip")
	}
	if got, want := loaded.Categorizer.Accuracy(eval, 3), orig.Categorizer.Accuracy(eval, 3); got != want {
		t.Fatalf("categorizer accuracy diverged: %v vs %v", got, want)
	}

	// The loaded miner is usable for prefetch admission.
	if loaded.Nav == nil {
		t.Fatal("loaded miner must have a Nav predictor")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version should fail")
	}
}

// TestLoadRejectsMismatchedCategorizer is the regression test for a
// model file whose categorizer declares more groups than it has tables:
// Load used to accept it, and the first Classify panicked with an index
// out of range.
func TestLoadRejectsMismatchedCategorizer(t *testing.T) {
	for _, cat := range []string{
		`{"groups":2,"page_freq":[],"prior":[]}`,
		`{"groups":2,"page_freq":[{},{}],"prior":[0.5]}`,
		`{"groups":1,"page_freq":[{},{}],"prior":[1]}`,
	} {
		m, err := Load(strings.NewReader(`{"version":1,"categorizer":` + cat + `}`))
		if err == nil {
			t.Errorf("Load accepted categorizer %s (Classify would see %d groups)", cat, m.Categorizer.Groups())
		}
	}
}

// FuzzLoad: for any input Load accepts, the queries the front-end makes
// of a loaded miner — navigation prediction and online learning, bundle
// lookups, the rank table and category classification — do not panic.
func FuzzLoad(f *testing.F) {
	// A small labeled log, so the saved seed carries every section
	// (contexts, bundles, ranks, categorizer) and stays short enough
	// for the fuzzer to minimize quickly.
	tr := labeledTrace(map[int][][]string{
		0: {{"/s/a", "/s/a.gif", "/s/b"}, {"/s/a", "/s/a.gif", "/s/c"}},
		1: {{"/f/x", "/f/y"}, {"/f/x", "/f/z", "/f/z.css"}},
	})
	var saved bytes.Buffer
	if err := Mine(tr, DefaultOptions()).Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"categorizer":{"groups":2,"page_freq":[],"prior":[]}}`))
	f.Add([]byte(`{"version":1,"options":{"Order":3},"contexts":{"/a":{"total":0,"next":null},"/a|/b":{"total":-1,"next":{"/c":2}}},"accessed":{"/a":1}}`))
	f.Add([]byte(`{"version":1,"page_views":{"/a":0},"object_counts":{"/a":{"/a.gif":-3},"/b":null},"rank_counts":{"/a":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		pages := []string{"/a", "/b"}
		for p := range m.Model.accessed {
			pages = append(pages, p)
		}
		for key := range m.Model.ctx {
			pages = append(pages, strings.Split(key, ctxSep)...)
		}
		if len(pages) > 16 {
			pages = pages[:16]
		}
		for i := range pages {
			m.Model.Predict(pages[:i+1])
			m.Model.PredictAll(pages[i:])
		}
		tracker := NewTracker(m.Nav, true)
		for _, p := range pages {
			tracker.Observe(1, p)
		}

		for _, page := range m.Bundles.Pages() {
			for _, obj := range m.Bundles.Objects(page) {
				m.Bundles.Parent(obj)
			}
		}
		for page, objs := range m.Bundles.objCounts {
			m.Bundles.Objects(page)
			for obj := range objs {
				m.Bundles.Parent(obj)
			}
		}
		m.Ranker.Table()
		m.Ranker.Top(3)

		if c := m.Categorizer; c != nil {
			vocab := make([]string, 0, len(c.vocabulary))
			for p := range c.vocabulary {
				vocab = append(vocab, p)
			}
			c.Classify(nil)
			c.Classify(pages)
			c.Classify(vocab)
			for g := -1; g <= c.Groups() && g < 8; g++ {
				c.TopPages(g, 4)
			}
		}
	})
}

func TestSaveTrained(t *testing.T) {
	tr := seqTrace([]string{"A", "B"}, []string{"A", "B"})
	var buf bytes.Buffer
	m, err := SaveTrained(&buf, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Model.Observations() != 2 {
		t.Fatalf("observations = %d", m.Model.Observations())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := loaded.Model.Predict([]string{"A"}); !ok || p.Page != "B" {
		t.Fatalf("loaded prediction = %+v ok=%v", p, ok)
	}
}

func TestLoadEmptyModel(t *testing.T) {
	var buf bytes.Buffer
	empty := Mine(&trace.Trace{Files: map[string]int64{}}, Options{})
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Model.Contexts() != 0 {
		t.Fatal("empty model should stay empty")
	}
	if loaded.Categorizer != nil {
		t.Fatal("no categorizer expected")
	}
}
