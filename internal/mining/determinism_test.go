package mining

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"prord/internal/clf"
	"prord/internal/trace"
)

// TestSaveIsByteDeterministic guards the offline-model contract: mining
// the same seeded trace must serialize to byte-identical JSON, run after
// run. Every section is a map, and JSON maps marshal with sorted keys.
func TestSaveIsByteDeterministic(t *testing.T) {
	generate := func() *Miner {
		_, tr, err := trace.GeneratePreset(trace.PresetCS, 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		return Mine(tr, DefaultOptions())
	}

	m := generate()
	var first, second bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two Saves of the same miner differ")
	}

	// Stronger: a fresh mine of a fresh generation of the same seed must
	// also match — the whole generate->mine->save pipeline is replayable.
	var fresh bytes.Buffer
	if err := generate().Save(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), fresh.Bytes()) {
		t.Error("re-mining the same seeded trace serialized differently")
	}
}

// TestParentIsAFunctionOfTheLog mines one CLF log twice. Two proxy
// hosts browse twelve pages, each embedding the same eight images
// once, so every image ties twelve ways for its parent page: the mined
// parent must be the same both times (the smallest page path), not
// whichever page the map range happened to visit first.
func TestParentIsAFunctionOfTheLog(t *testing.T) {
	var log bytes.Buffer
	w := clf.NewWriter(&log)
	at := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	var images []string
	for i := 0; i < 8; i++ {
		images = append(images, fmt.Sprintf("/img/shared%d.gif", i))
	}
	for p := 0; p < 12; p++ {
		e := clf.Entry{Host: fmt.Sprintf("proxy-%d", p%2), Method: "GET", Proto: "HTTP/1.1", Status: 200, Bytes: 100}
		e.Time, e.Path = at, fmt.Sprintf("/page%02d.html", p)
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		for _, img := range images {
			at = at.Add(100 * time.Millisecond)
			e.Time, e.Path = at, img
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		at = at.Add(time.Minute)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	mine := func() *Bundles {
		tr, err := trace.ReadCLF("log", bytes.NewReader(log.Bytes()), trace.DefaultSessionizeOptions())
		if err != nil {
			t.Fatal(err)
		}
		return Mine(tr, DefaultOptions()).Bundles
	}
	first, second := mine(), mine()
	for _, img := range images {
		a, okA := first.Parent(img)
		b, okB := second.Parent(img)
		if !okA || !okB || a != b {
			t.Errorf("%s: parent %q (%v) in one mining, %q (%v) in the next", img, a, okA, b, okB)
		}
		if a != "/page00.html" {
			t.Errorf("%s: parent %q, want the smallest tied page /page00.html", img, a)
		}
	}
}

// referenceTrain is the trainers' session loop as it was before
// eachPageSequence: group each session's main pages through a map,
// sort the ids, and observe each session's pages.
func referenceTrain(tr *trace.Trace, observe func(pages []string)) {
	sessions := make(map[int][]string)
	for i := range tr.Requests {
		if r := &tr.Requests[i]; !r.Embedded {
			sessions[r.Session] = append(sessions[r.Session], r.Path)
		}
	}
	ids := make([]int, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		observe(sessions[id])
	}
}

// TestTrainMatchesReference trains every session-sequence predictor
// through eachPageSequence and through the reference loop, on a
// generated trace and on the same trace with sparse, negative and
// shuffled session ids: the trained state is the same.
func TestTrainMatchesReference(t *testing.T) {
	_, dense, err := trace.GeneratePreset(trace.PresetCS, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	sparse := &trace.Trace{Name: "sparse", Files: dense.Files, Requests: slices.Clone(dense.Requests)}
	for i := range sparse.Requests {
		s := &sparse.Requests[i].Session
		*s = (*s*7919)%1000 - 500 + 1000*(*s%3)
	}
	for _, tr := range []*trace.Trace{dense, sparse} {
		got, want := NewModel(2), NewModel(2)
		got.Train(tr)
		referenceTrain(tr, want.ObserveSequence)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Model.Train differs from the reference", tr.Name)
		}
		gotDG, wantDG := NewDG(2), NewDG(2)
		gotDG.Train(tr)
		referenceTrain(tr, wantDG.ObserveSequence)
		if !reflect.DeepEqual(gotDG, wantDG) {
			t.Errorf("%s: DG.Train differs from the reference", tr.Name)
		}
		gotSR, wantSR := NewSeqRules(3), NewSeqRules(3)
		gotSR.Train(tr)
		referenceTrain(tr, wantSR.ObserveSequence)
		if !reflect.DeepEqual(gotSR, wantSR) {
			t.Errorf("%s: SeqRules.Train differs from the reference", tr.Name)
		}
	}
}

// TestMineConcurrently mines one trace on two goroutines at once, with
// the default navigation model and with one trained beside it: each
// result equals a serial Mine's and saves to the same bytes. Under
// -race it also checks that the trainers only read the shared trace.
func TestMineConcurrently(t *testing.T) {
	_, tr, err := trace.GeneratePreset(trace.PresetCS, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, predictor := range []string{"model", "ppm"} {
		opt := DefaultOptions()
		opt.Predictor = predictor
		want := Mine(tr, opt)
		var wantJSON bytes.Buffer
		if err := want.Save(&wantJSON); err != nil {
			t.Fatal(err)
		}
		var got [2]*Miner
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = Mine(tr, opt)
			}()
		}
		wg.Wait()
		for i, m := range got {
			if !reflect.DeepEqual(m, want) {
				t.Errorf("%s: concurrent Mine %d differs from a serial one", predictor, i)
			}
			var js bytes.Buffer
			if err := m.Save(&js); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Bytes(), wantJSON.Bytes()) {
				t.Errorf("%s: concurrent Mine %d saves differently from a serial one", predictor, i)
			}
		}
	}
}
