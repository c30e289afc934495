package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	samples := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond,
	}
	var sum time.Duration
	for _, s := range samples {
		h.Observe(s)
		sum += s
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != sum/time.Duration(len(samples)) {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatal("negative sample should clamp to zero")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		var h Histogram
		for _, r := range raw {
			h.Observe(time.Duration(r) * time.Microsecond)
		}
		q50 := h.Quantile(0.5)
		q90 := h.Quantile(0.9)
		q99 := h.Quantile(0.99)
		return q50 <= q90 && q90 <= q99 && q99 <= h.Max() || h.Count() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	q := h.Quantile(0.5)
	// The true median is 500µs; the log-bucket estimate must be within
	// one power of two above it.
	if q < 500*time.Microsecond || q > 1024*time.Microsecond {
		t.Fatalf("Quantile(0.5) = %v, want within [500µs, 1024µs]", q)
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1) = %v, want max %v", h.Quantile(1), h.Max())
	}
	if h.Quantile(-1) > h.Quantile(0.1) {
		t.Fatal("clamped q<0 should be a low quantile")
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	// 512 samples filling one log bucket ([512µs, 1024µs)) uniformly: the
	// known quantiles fall inside the bucket, not on its boundary.
	var h Histogram
	for us := 512; us < 1024; us++ {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 768 * time.Microsecond},
		{0.9, 972 * time.Microsecond},
		{0.99, 1018 * time.Microsecond},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if diff := got - c.want; diff < -2*time.Microsecond || diff > 2*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want %v +/- 2µs", c.q, got, c.want)
		}
	}
	// The pre-interpolation estimator returned the bucket's upper
	// boundary clamped to the max (1023µs) for every quantile above —
	// overstating the median by ~33% here and p99 by up to 2x in general.
	if h.Quantile(0.99) >= h.Max() {
		t.Errorf("Quantile(0.99) = %v, want below the boundary estimate %v", h.Quantile(0.99), h.Max())
	}
}

func TestHistogramQuantileClampsToObserved(t *testing.T) {
	// Identical samples must report the sample value at every quantile
	// (the [Min, Max] clamp collapses the bucket-width uncertainty).
	var h Histogram
	for i := 0; i < 9; i++ {
		h.Observe(700 * time.Microsecond)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 700*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want 700µs", q, got)
		}
	}
	// Bimodal: the quantiles must land in the correct mode's bucket.
	var b Histogram
	for i := 0; i < 100; i++ {
		b.Observe(100 * time.Microsecond) // bucket [64µs, 128µs)
	}
	for i := 0; i < 100; i++ {
		b.Observe(1000 * time.Microsecond) // bucket [512µs, 1024µs)
	}
	if q := b.Quantile(0.25); q < 100*time.Microsecond || q > 128*time.Microsecond {
		t.Errorf("Quantile(0.25) = %v, want within low mode's bucket", q)
	}
	if q := b.Quantile(0.75); q < 512*time.Microsecond || q > 1000*time.Microsecond {
		t.Errorf("Quantile(0.75) = %v, want within high mode's bucket", q)
	}
}

func TestCollectorRates(t *testing.T) {
	var c Collector
	c.Completed = 200
	c.MemoryHits = 80
	c.MemoryMisses = 20
	c.Dispatches = 50
	c.Prefetches = 10
	c.PrefetchHits = 7
	if c.HitRate() != 0.8 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
	if c.Throughput(10*time.Second) != 20 {
		t.Fatalf("Throughput = %v", c.Throughput(10*time.Second))
	}
	if c.Throughput(0) != 0 {
		t.Fatal("zero elapsed should yield zero throughput")
	}
	if c.PrefetchAccuracy() != 0.7 {
		t.Fatalf("PrefetchAccuracy = %v", c.PrefetchAccuracy())
	}
	if c.DispatchesPerRequest() != 0.25 {
		t.Fatalf("DispatchesPerRequest = %v", c.DispatchesPerRequest())
	}
	if c.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestCollectorZeroDivisions(t *testing.T) {
	var c Collector
	if c.HitRate() != 0 || c.PrefetchAccuracy() != 0 || c.DispatchesPerRequest() != 0 {
		t.Fatal("zero-sample rates should be 0")
	}
}
