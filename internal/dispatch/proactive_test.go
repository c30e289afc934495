package dispatch_test

import (
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/trace"
)

// TestPlanProactiveAllocs pins the proactive pass at zero allocations
// once every candidate it would plan is already marked prefetched: the
// navigation tracker observes and predicts without allocating, and the
// predicted group is admitted without being assembled into a slice.
func TestPlanProactiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 800.0/30000.0, 7777)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := full.Split(0.5)
	c, err := dispatch.New(dispatch.Config{
		Backends: 4,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
		Miner:    mining.Mine(train, mining.Options{}),
		Features: dispatch.Features{Bundle: true, NavPrefetch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pages []string
	for _, r := range train.Requests {
		if !r.Embedded && len(pages) < 32 {
			pages = append(pages, r.Path)
		}
	}
	const key = "10.7.0.1:4242"
	now := time.Unix(0, 0)
	out := c.Route(key, pages[0], 2048, now)
	c.Done(key, out.Server, pages[0], false, false)
	// Online learning moves the predictions and their confidences
	// until the replayed transitions dominate the model; by then every
	// candidate has been admitted once and stays marked.
	pass := func() (planned int) {
		for _, page := range pages {
			if _, ok := c.PlanProactive(key, out.Server, page, now); ok {
				planned++
			}
		}
		return planned
	}
	if pass() == 0 {
		t.Fatal("setup: the first pass planned no prefetch, so the test below tests nothing")
	}
	for n := 0; n < 64; n++ {
		pass()
	}
	if n := pass(); n != 0 {
		t.Fatalf("setup: %d pages still planned a prefetch after warm-up", n)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.PlanProactive(key, out.Server, pages[i%len(pages)], now); ok {
			t.Fatal("a candidate was still unmarked after warm-up")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("PlanProactive allocates %.2f objects per pass with every candidate marked, want 0", allocs)
	}
}
