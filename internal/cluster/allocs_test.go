package cluster

import (
	"runtime"
	"testing"
	"time"

	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/replicate"
	"prord/internal/trace"
)

// paperCell returns the benchmark's sim-paper cell in small: the
// WorldCup preset at scale 0.05, PRORD with every feature on 8
// backends, memory at 30% of the data set. The returned function
// builds a fresh cluster on a freshly mined model each call: a cluster
// is single-use, and the navigation predictor learns in place.
func paperCell(tb testing.TB) (eval *trace.Trace, build func() *Cluster) {
	tb.Helper()
	_, full, err := trace.GeneratePreset(trace.PresetWorldCup, 0.05, 1)
	if err != nil {
		tb.Fatal(err)
	}
	train, eval := full.Split(0.4)
	opt := mining.DefaultOptions()
	opt.RankDecay = 0.9
	p := DefaultParams()
	p.Backends = 8
	per := 0.3 * float64(eval.TotalFileBytes()) / float64(p.Backends)
	p.AppMemory, p.PinnedMemory = int64(per*0.64), int64(per*0.36)
	return eval, func() *Cluster {
		cl, err := New(Config{
			Params:              p,
			Policy:              policy.NewPRORD(policy.Thresholds{}),
			Features:            AllFeatures(),
			Miner:               mining.Mine(train, opt),
			ReplicateConfig:     replicate.Config{T1Fraction: 0.05, MaxFiles: 64},
			ReplicationInterval: 5 * time.Second / 30,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return cl
	}
}

// TestRunAllocsPerRequest is the simulator's allocation ratchet, the
// counterpart of httpfront's TestForwardAllocs: paperCell's replay must
// allocate at most ceiling heap objects a request, counted over the
// whole process around Run. Scheduling a request's steps, caching,
// session and window slots, pooled prefetch reads, replica copies (an
// event on the target's link, with no record), replication rounds and
// the map-free session grouping allocate nothing per request or per
// session. What is counted is growth: the dispatch core's id-indexed
// file slabs as it meets files the miner did not name, the rank rows
// and the replication manager's flags likewise, the session and
// window slabs up to the most connections open at once, the caches'
// slabs, the event pools and the per-run set-up, which a longer trace
// spreads thinner (this replay reads about 0.033, the benchmark's
// full-scale sim-paper replay about 0.0015).
func TestRunAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 0.037
	eval, build := paperCell(t)
	cl := build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := cl.Run(eval)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != int64(len(eval.Requests)) {
		t.Fatalf("completed %d of %d requests", res.Metrics.Completed, len(eval.Requests))
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(len(eval.Requests))
	t.Logf("%d requests, %d events, %.3f allocations per request", len(eval.Requests), cl.eng.Executed(), perReq)
	if perReq > ceiling {
		t.Errorf("Run allocated %.3f objects per request over %d requests, ceiling %.3f", perReq, len(eval.Requests), ceiling)
	}
}

// BenchmarkRun replays paperCell's trace once per iteration; mining and
// building the cluster are outside the timer. ns/op and allocs/op are
// per replay: divide by the request count it reports for a per-request
// figure.
func BenchmarkRun(b *testing.B) {
	eval, build := paperCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := build()
		b.StartTimer()
		if _, err := cl.Run(eval); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(eval.Requests)), "requests/op")
}
