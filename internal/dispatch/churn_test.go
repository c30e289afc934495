package dispatch_test

// Concurrency churn test for the decision core, aimed at the race
// detector (`make race`): many goroutines drive the full
// booking lifecycle — Route, failed attempts, Rebook retries, Done —
// while another goroutine keeps invalidating backends, which rewrites
// every lock stripe's locality and session state mid-flight. After the
// storm the core's books must balance exactly.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/policy"
	"prord/internal/randutil"
)

func TestCoreConcurrentChurn(t *testing.T) {
	const backends = 4
	c, err := dispatch.New(dispatch.Config{
		Backends: backends,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
		// Small bounds so locality eviction and session eviction both
		// fire under load instead of only growing the tables.
		LocalityEntries: 512,
		MaxSessions:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)

	const workers = 8
	const iters = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randutil.New(int64(1000 + w))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("10.1.%d.%d:99", w, rng.Intn(64))
				path := fmt.Sprintf("/g%d/p%d.html", rng.Intn(4), rng.Intn(128))
				out := c.Route(key, path, 2048, now)
				if !out.OK {
					t.Errorf("worker %d: no backend available with none down", w)
					continue
				}
				switch rng.Intn(10) {
				case 0:
					// Failed attempt masked by a failover retry.
					c.Done(key, out.Server, path, true, false)
					if srv, ok := c.Rebook(key, path, out.Server, now); ok {
						c.Done(key, srv, path, false, true)
					}
				case 1:
					// Failed attempt with no retry.
					c.Done(key, out.Server, path, true, false)
				default:
					c.Done(key, out.Server, path, false, false)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var inv sync.WaitGroup
	inv.Add(1)
	go func() {
		defer inv.Done()
		rng := randutil.New(7)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.InvalidateBackend(rng.Intn(backends))
			runtime.Gosched()
		}
	}()

	wg.Wait()
	close(stop)
	inv.Wait()

	for s, l := range c.Loads() {
		if l != 0 {
			t.Errorf("backend %d still has %d booked requests after drain", s, l)
		}
	}
	if n := c.InFlightFiles(); n != 0 {
		t.Errorf("%d files still marked in flight after drain", n)
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
	st := c.Stats()
	if want := int64(workers * iters); st.Requests != want {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, want)
	}
}
