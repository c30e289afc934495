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

// TestRunAllocsPerRequest is the simulator's allocation ratchet, the
// counterpart of httpfront's TestForwardAllocs: the benchmark's
// sim-paper cell in small — the WorldCup preset, PRORD with every
// feature, memory at 30% of the data set — must replay for at most
// three heap objects a request, counted over the whole process around
// Run. Scheduling a request's steps allocates nothing; what is counted
// is the core's own (session state, navigation tracking, prefetch
// plans) and the per-run set-up, which a longer trace spreads thinner.
func TestRunAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 3.0
	_, full, err := trace.GeneratePreset(trace.PresetWorldCup, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.4)
	opt := mining.DefaultOptions()
	opt.RankDecay = 0.9
	p := DefaultParams()
	p.Backends = 8
	per := 0.3 * float64(eval.TotalFileBytes()) / float64(p.Backends)
	p.AppMemory, p.PinnedMemory = int64(per*0.64), int64(per*0.36)
	cl, err := New(Config{
		Params:              p,
		Policy:              policy.NewPRORD(policy.Thresholds{}),
		Features:            AllFeatures(),
		Miner:               mining.Mine(train, opt),
		ReplicateConfig:     replicate.Config{T1Fraction: 0.05, MaxFiles: 64},
		ReplicationInterval: 5 * time.Second / 30,
	})
	if err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("Run allocated %.3f objects per request over %d requests, ceiling %.1f", perReq, len(eval.Requests), ceiling)
	}
}
