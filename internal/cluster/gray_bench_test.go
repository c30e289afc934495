package cluster

import (
	"testing"

	"prord/internal/dispatch"
)

// grayFaultPair runs the acceptance scenario twice on the same seeded
// trace: one backend turns 10x slow an eighth of the way in, once with
// the gray layer off and once with detection + hedging on. The sim is
// virtual-time deterministic, so both results replay byte-identically.
func grayFaultPair(t *testing.T) (off, on *Result) {
	t.Helper()
	run := func(gray *dispatch.GrayConfig) *Result {
		tr, cfg := compressedWorkload(t, 4000, 211, 200)
		start := tr.Requests[len(tr.Requests)/8].Time
		cfg.Failures = []Failure{{Server: 1, At: start, Mode: Slow, Slowdown: 10}}
		cfg.Gray = gray
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Completed != int64(len(tr.Requests)) {
			t.Fatalf("completed %d of %d", res.Metrics.Completed, len(tr.Requests))
		}
		return res
	}
	return run(nil), run(&dispatch.GrayConfig{Detector: fastDetector(), Hedge: true})
}

// TestGrayLayerCutsP99AtLeast2x is the tentpole acceptance criterion:
// with one backend at slow=x10, the detector plus hedging must cut the
// client p99 at least in half against the undefended run.
func TestGrayLayerCutsP99AtLeast2x(t *testing.T) {
	off, on := grayFaultPair(t)
	p99Off := off.Metrics.Response.Quantile(0.99)
	p99On := on.Metrics.Response.Quantile(0.99)
	if 2*p99On > p99Off {
		t.Fatalf("gray layer cut p99 %v -> %v (%.2fx), want >= 2x",
			p99Off, p99On, float64(p99Off)/float64(p99On))
	}
}
