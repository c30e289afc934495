package cluster

import (
	"testing"

	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// dynamicWorkload builds a synthetic trace whose site has the given
// fraction of dynamic (uncacheable) pages.
func dynamicWorkload(t *testing.T, frac float64, seed int64) (*trace.Trace, *mining.Miner) {
	t.Helper()
	sc, tc, err := trace.PresetConfigs(trace.PresetSynthetic, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	sc.DynamicFraction = frac
	rng := randutil.New(seed)
	site, err := trace.GenerateSite(sc, rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.Generate("dyn", site, tc, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.4)
	return eval, mining.Mine(train, mining.Options{})
}

func TestDynamicRequestsServed(t *testing.T) {
	tr, m := dynamicWorkload(t, 0.3, 3)
	var dynWant int64
	for i := range tr.Requests {
		if tr.Requests[i].Dynamic {
			dynWant++
		}
	}
	if dynWant == 0 {
		t.Fatal("workload should contain dynamic requests")
	}
	res := runPolicy(t, tr, m, policy.NewPRORD(policy.Thresholds{}), AllFeatures(), smallParams(4, 4, 2))
	if res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d", res.Metrics.Completed, len(tr.Requests))
	}
	if res.Metrics.DynamicServed != dynWant {
		t.Fatalf("DynamicServed = %d, want %d", res.Metrics.DynamicServed, dynWant)
	}
	// Dynamic requests are neither hits nor misses.
	if res.Metrics.MemoryHits+res.Metrics.MemoryMisses+res.Metrics.DynamicServed !=
		res.Metrics.Completed {
		t.Fatalf("hit+miss+dynamic should equal completed: %+v", res.Metrics)
	}
}

func TestDynamicPagesNeverCached(t *testing.T) {
	tr, m := dynamicWorkload(t, 0.5, 5)
	cl, err := New(Config{Params: smallParams(4, 4, 2),
		Policy: policy.NewPRORD(policy.Thresholds{}), Features: AllFeatures(), Miner: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(tr); err != nil {
		t.Fatal(err)
	}
	for file := range cl.Core().ResidencySnapshot() {
		if trace.IsDynamicPath(file) {
			t.Fatalf("dynamic file %s recorded as memory-resident", file)
		}
	}
	for _, b := range cl.backends {
		for i := range tr.Requests {
			if tr.Requests[i].Dynamic && b.store.Contains(tr.Requests[i].Path) {
				t.Fatalf("dynamic file %s found in backend cache", tr.Requests[i].Path)
			}
		}
	}
}

func TestDynamicPagesNeverPrefetched(t *testing.T) {
	tr, m := dynamicWorkload(t, 0.5, 7)
	cl, err := New(Config{Params: smallParams(4, 4, 2),
		Policy: policy.NewPRORD(policy.Thresholds{}), Features: AllFeatures(), Miner: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(tr); err != nil {
		t.Fatal(err)
	}
	for file := range cl.Core().PrefetchMarks() {
		if trace.IsDynamicPath(file) {
			t.Fatalf("dynamic file %s was prefetched", file)
		}
	}
}

func TestStaticOnlySiteHasNoDynamicRequests(t *testing.T) {
	tr, m := dynamicWorkload(t, 0, 9)
	res := runPolicy(t, tr, m, policy.NewLARD(policy.Thresholds{}), Features{}, smallParams(4, 4, 2))
	if res.Metrics.DynamicServed != 0 {
		t.Fatalf("static site served %d dynamic requests", res.Metrics.DynamicServed)
	}
}
