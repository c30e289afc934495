package dispatch_test

// Tests of the routed path beyond its golden decision stream
// (decision_stream_test.go): the steady-state allocation budget, the
// ordered record emitter's independence from a blocked Recorder, and a
// race-detector storm of in-place navigation learning and backend
// invalidation against routing traffic (`make race`).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// TestRouteDoneAllocs pins the steady-state allocation budget of the
// Route/Done pair at zero: policy inputs are plain fields fixed at New,
// masks are single words, the policy view comes from a pool, shard
// hashing is inline FNV-1a, and booking reuses retained per-path
// records. Warm-up pays the one-time costs (sessions, records, views).
func TestRouteDoneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	c, err := dispatch.New(dispatch.Config{
		Backends: 8,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/g%d/p%d.html", i%4, i)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.9.0.%d:1234", i)
	}
	now := time.Unix(0, 0)
	step := func(i int) {
		key, path := keys[i%len(keys)], paths[i%len(paths)]
		out := c.Route(key, path, 4096, now)
		c.Done(key, out.Server, path, false, false)
	}
	for i := 0; i < 4*len(paths); i++ {
		step(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		step(i)
		i++
	})
	// A GC can empty the view pool mid-run and cost one stray
	// allocation; averaged over 2000 runs that is ~0.0005, so a small
	// tolerance separates it from a real per-decision allocation.
	if allocs > 0.1 {
		t.Errorf("Route+Done allocates %.3f objects per pair in steady state, want 0", allocs)
	}
}

// TestRecorderBlockingDoesNotStallRoutes is the regression test for
// the lock-held Recorder bug: the sink used to run under the policy
// lock on the routed path, so a slow Recorder serialized every decision. With the
// ordered emitter, exactly one goroutine (the drainer) waits on the
// sink while every other Route enqueues its record and returns. After
// the sink unblocks, delivery must be complete and in Seq order.
func TestRecorderBlockingDoesNotStallRoutes(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var enteredOnce sync.Once
	var mu sync.Mutex
	var seqs []int64
	c, err := dispatch.New(dispatch.Config{
		Backends: 4,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
		Recorder: func(r dispatch.Record) {
			enteredOnce.Do(func() { close(entered) })
			<-release
			mu.Lock()
			seqs = append(seqs, r.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)

	// The first decision's goroutine becomes the drainer and parks
	// inside the sink (its Route call blocks in emit → drain).
	var drainer sync.WaitGroup
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		out := c.Route("blocked:1", "/g0/p0.html", 2048, now)
		c.Done("blocked:1", out.Server, "/g0/p0.html", false, false)
	}()
	<-entered

	// With the drainer wedged, concurrent Routes must still complete:
	// their records pile up in the emitter's pending map.
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("10.8.%d.%d:99", w, i%16)
				path := fmt.Sprintf("/g%d/p%d.html", i%4, i%64)
				out := c.Route(key, path, 2048, now)
				c.Done(key, out.Server, path, false, false)
			}
		}(w)
	}
	routed := make(chan struct{})
	go func() { wg.Wait(); close(routed) }()
	select {
	case <-routed:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Routes stalled behind a blocked Recorder")
	}

	close(release)
	drainer.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := int64(1 + workers*iters)
	if int64(len(seqs)) != want {
		t.Fatalf("sink received %d records, want %d", len(seqs), want)
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("delivery out of order: position %d got Seq %d, want %d", i, s, i+1)
		}
	}
}

// TestLearnAndInvalidateChurn storms the core under the race detector:
// routing workers drive Route/PlanProactive/Rebook/Done — PlanProactive
// trains the navigation model in place under trackMu — while a crasher
// invalidates backends under wrMu. Afterward the books must balance and
// the session table must be intact and within its bound.
func TestLearnAndInvalidateChurn(t *testing.T) {
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 800.0/30000.0, 7777)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := full.Split(0.5)
	const backends = 4
	c, err := dispatch.New(dispatch.Config{
		Backends:        backends,
		Policy:          policy.NewPRORD(policy.Thresholds{}),
		Miner:           mining.Mine(train, mining.Options{}),
		Features:        dispatch.Features{Bundle: true, NavPrefetch: true, GroupPrefetch: true},
		LocalityEntries: 512,
		MaxSessions:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randutil.New(int64(3000 + w))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("10.3.%d.%d:99", w, rng.Intn(64))
				path := fmt.Sprintf("/g%d/p%d.html", rng.Intn(4), rng.Intn(128))
				out := c.Route(key, path, 2048, now)
				if !out.OK {
					t.Errorf("worker %d: no backend available with none down", w)
					continue
				}
				if rng.Intn(4) == 0 {
					c.PlanProactive(key, out.Server, path, now)
				}
				if rng.Intn(10) == 0 {
					c.Done(key, out.Server, path, true, false)
					if srv, ok := c.Rebook(key, path, out.Server, now); ok {
						c.Done(key, srv, path, false, true)
					}
					continue
				}
				c.Done(key, out.Server, path, false, false)
			}
		}(w)
	}

	stop := make(chan struct{})
	var crasher sync.WaitGroup
	crasher.Add(1)
	go func() {
		defer crasher.Done()
		rng := randutil.New(19)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.InvalidateBackend(rng.Intn(backends))
		}
	}()

	wg.Wait()
	close(stop)
	crasher.Wait()

	for s, l := range c.Loads() {
		if l != 0 {
			t.Errorf("backend %d still has %d booked requests after drain", s, l)
		}
	}
	total, busy, problem := c.SessionCheck()
	if problem != "" {
		t.Errorf("session table corrupt: %s", problem)
	}
	if busy != 0 {
		t.Errorf("%d sessions still busy after drain", busy)
	}
	if total > 256 {
		t.Errorf("session table grew to %d entries despite bound 256", total)
	}
}
