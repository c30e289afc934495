package mining

import (
	"testing"

	"prord/internal/trace"
)

func TestMineFacade(t *testing.T) {
	_, tr, err := trace.GeneratePreset(trace.PresetSynthetic, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := Mine(tr, Options{})
	if m.Model.Order() != 2 {
		t.Fatalf("default order = %d, want 2", m.Model.Order())
	}
	if m.Model.Observations() == 0 || m.Ranker.Len() == 0 {
		t.Fatal("mining should have consumed the trace")
	}
	if !m.ShouldPrefetch(Prediction{Confidence: 0.9}) {
		t.Fatal("high-confidence prediction should be prefetched")
	}
	if m.ShouldPrefetch(Prediction{Confidence: 0.1}) {
		t.Fatal("low-confidence prediction should not be prefetched")
	}
	if m.Summary() == "" {
		t.Fatal("Summary should be non-empty")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Order: -1, BundleSupport: 2, RankDecay: 0, PrefetchThreshold: -0.5}.withDefaults()
	d := DefaultOptions()
	if o != d {
		t.Fatalf("withDefaults = %+v, want %+v", o, d)
	}
}
