package mining

import (
	"bytes"
	"fmt"
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
