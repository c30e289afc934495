package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for us := 512; us < 1024; us++ {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 512 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.MinNS != 512_000 || s.MaxNS != 1023_000 {
		t.Fatalf("Min/Max = %d/%d", s.MinNS, s.MaxNS)
	}
	if s.P50NS < 766_000 || s.P50NS > 770_000 {
		t.Fatalf("P50 = %dns, want ~768µs", s.P50NS)
	}
	if s.P99NS >= s.MaxNS {
		t.Fatalf("P99 = %dns, want interpolated below max %d", s.P99NS, s.MaxNS)
	}
}

func TestBenchArtifactEncodeStable(t *testing.T) {
	build := func() *BenchArtifact {
		var h Histogram
		h.Observe(3 * time.Millisecond)
		h.Observe(5 * time.Millisecond)
		return &BenchArtifact{
			Tool:     "test",
			Config:   map[string]any{"backends": 2, "seed": int64(1)},
			Workload: map[string]any{"requests": 2},
			Runs: []BenchRun{{
				Name:          "PRORD",
				Requests:      2,
				ThroughputRPS: Round(123.4567, 1),
				Latency:       h.Summary(),
				HitRate:       Round(0.98765, 4),
				Backends:      []BackendSample{{Requests: 1}, {Requests: 1}},
				LoadSkew:      Skew([]int64{1, 1}),
				Sim:           &SimComparison{ThroughputRPS: 120, MeanUS: 4000, ThroughputDeltaPct: DeltaPct(123.5, 120)},
			}},
		}
	}
	var a, b bytes.Buffer
	if err := build().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two encodings differ:\n%s\n---\n%s", a.String(), b.String())
	}
	for _, want := range []string{`"schema": "prord-bench/5"`, `"p99_ns"`, `"throughput_delta_pct"`, `"load_skew": 1`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("encoding missing %q:\n%s", want, a.String())
		}
	}
	// prord-bench/4 removed the run's fleet block and the sim block's
	// fleet_forwards.
	for _, gone := range []string{`"fleet"`, `"fleet_forwards"`} {
		if strings.Contains(a.String(), gone) {
			t.Errorf("encoding still carries %s:\n%s", gone, a.String())
		}
	}
	// GeneratedAt stays out of the encoding until stamped, so the
	// deterministic portion can be diffed directly.
	if strings.Contains(a.String(), "generated_at") {
		t.Error("unstamped artifact should omit generated_at")
	}
	art := build()
	art.Stamp(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	var c bytes.Buffer
	if err := art.Encode(&c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), `"generated_at": "2026-08-05T12:00:00Z"`) {
		t.Errorf("stamped artifact missing timestamp:\n%s", c.String())
	}
}

func TestRoundAndHelpers(t *testing.T) {
	if Round(1.23456, 2) != 1.23 {
		t.Fatalf("Round = %v", Round(1.23456, 2))
	}
	if Round(-0.0001, 2) != 0 {
		t.Fatalf("Round should fold -0 into 0, got %v", Round(-0.0001, 2))
	}
	if DeltaPct(110, 100) != 10 {
		t.Fatalf("DeltaPct = %v", DeltaPct(110, 100))
	}
	if DeltaPct(1, 0) != 0 {
		t.Fatal("DeltaPct with zero baseline should be 0")
	}
	if Skew([]int64{3, 1}) != 1.5 {
		t.Fatalf("Skew = %v", Skew([]int64{3, 1}))
	}
	if Skew(nil) != 0 || Skew([]int64{0, 0}) != 0 {
		t.Fatal("Skew of empty/zero counts should be 0")
	}
}
