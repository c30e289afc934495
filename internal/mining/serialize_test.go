package mining

import (
	"bytes"
	"reflect"
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
	for _, sess := range eval.Sessions() {
		var pages []string
		for _, i := range sess.Reqs {
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

// savedV1WithGroups is a version-1 model file as Save wrote it
// while the miner still trained a user categorizer on group-labeled
// logs: four sessions of two groups, mined with DefaultOptions. Its
// last section is the categorizer's.
const savedV1WithGroups = `{"version":1,"options":{"Order":2,"BundleSupport":0.5,"RankDecay":0.5,"PrefetchThreshold":0.4,"Predictor":"model"},"contexts":{"/f/x":{"total":2,"next":{"/f/y":1,"/f/z":1}},"/f/x|/f/z":{"total":1,"next":{"/f/z.css":1}},"/f/z":{"total":1,"next":{"/f/z.css":1}},"/s/a":{"total":2,"next":{"/s/a.gif":2}},"/s/a.gif":{"total":2,"next":{"/s/b":1,"/s/c":1}},"/s/a|/s/a.gif":{"total":2,"next":{"/s/b":1,"/s/c":1}}},"accessed":{"/f/x":2,"/f/y":1,"/f/z":1,"/f/z.css":1,"/s/a":2,"/s/a.gif":2,"/s/b":1,"/s/c":1},"observed":7,"page_views":{"/f/x":2,"/f/y":1,"/f/z":1,"/s/a":2,"/s/b":1,"/s/c":1},"object_counts":{"/f/z":{"/f/z.css":1},"/s/a":{"/s/a.gif":2}},"rank_counts":{"/f/x":2,"/f/y":1,"/f/z":1,"/f/z.css":1,"/s/a":2,"/s/a.gif":2,"/s/b":1,"/s/c":1},"categorizer":{"groups":2,"page_freq":[{"/s/a":0.21428571428571427,"/s/a.gif":0.21428571428571427,"/s/b":0.14285714285714285,"/s/c":0.14285714285714285},{"/f/x":0.23076923076923078,"/f/y":0.15384615384615385,"/f/z":0.15384615384615385,"/f/z.css":0.15384615384615385}],"prior":[0.5384615384615384,0.46153846153846156],"vocabulary":["/f/x","/f/y","/f/z","/f/z.css","/s/a","/s/a.gif","/s/b","/s/c"]}}`

// TestLoadIgnoresCategorySection: model files written before the
// categorizer was retired carry a "categorizer" section, well formed or
// (as a fuzzed file did) with fewer tables than groups. Load accepts
// both and reads the model, bundles and rank table exactly as from the
// same file without the section, which is what Save writes today.
func TestLoadIgnoresCategorySection(t *testing.T) {
	head, _, ok := strings.Cut(savedV1WithGroups, `,"categorizer":`)
	if !ok {
		t.Fatal("the fixture has no categorizer section")
	}
	bare := head + "}"
	var saved bytes.Buffer
	m := Mine(seqTrace(
		[]string{"/s/a", "/s/a.gif", "/s/b"}, []string{"/s/a", "/s/a.gif", "/s/c"},
		[]string{"/f/x", "/f/y"}, []string{"/f/x", "/f/z", "/f/z.css"}), DefaultOptions())
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(saved.String()); got != bare {
		t.Fatalf("Save of the fixture's log no longer writes the fixture without its categorizer:\n%s\nwant\n%s", got, bare)
	}
	cases := [][2]string{{savedV1WithGroups, bare}}
	for _, cat := range []string{
		`{"groups":2,"page_freq":[],"prior":[]}`,
		`{"groups":2,"page_freq":[{},{}],"prior":[0.5]}`,
		`{"groups":1,"page_freq":[{},{}],"prior":[1]}`,
	} {
		cases = append(cases, [2]string{`{"version":1,"categorizer":` + cat + `}`, `{"version":1}`})
	}
	for _, c := range cases {
		with, err := Load(strings.NewReader(c[0]))
		if err != nil {
			t.Errorf("Load rejected %s: %v", c[0], err)
			continue
		}
		without, err := Load(strings.NewReader(c[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(with.Model, without.Model) || !reflect.DeepEqual(with.Bundles, without.Bundles) ||
			!reflect.DeepEqual(with.Ranker, without.Ranker) {
			t.Errorf("the categorizer section changed what Load read from %s", c[0])
		}
	}
}

// FuzzLoad: for any input Load accepts, the queries the front-end makes
// of a loaded miner — navigation prediction and online learning, bundle
// lookups and the rank table — do not panic.
func FuzzLoad(f *testing.F) {
	// A saved model carrying every section (contexts, bundles, ranks and
	// a retired categorizer), short enough for the fuzzer to minimize
	// quickly.
	f.Add([]byte(savedV1WithGroups))
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
		m.Ranker.Head(nil, 8)
		m.Ranker.Top(3)
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
}
