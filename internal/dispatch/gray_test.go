package dispatch_test

// Gray-failure wiring tests for the decision core: the Degraded hook's
// soft exclusion and progressive rebinding, the shared holder-
// preferring target helper behind Rebook and HedgeTarget, and the
// hedge booking lifecycle.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/policy"
	"prord/internal/randutil"
)

// grayMask is a lock-free Degraded hook for tests.
type grayMask struct{ bits []atomic.Bool }

func newGrayMask(n int) *grayMask       { return &grayMask{bits: make([]atomic.Bool, n)} }
func (g *grayMask) set(s int, v bool)   { g.bits[s].Store(v) }
func (g *grayMask) degraded(s int) bool { return g.bits[s].Load() }

func newGrayCore(t *testing.T, backends int, g *grayMask) *dispatch.Core {
	t.Helper()
	cfg := dispatch.Config{
		Backends: backends,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
	}
	if g != nil {
		cfg.Degraded = g.degraded
	}
	c, err := dispatch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDegradedExcludedFromNewBindings(t *testing.T) {
	g := newGrayMask(4)
	c := newGrayCore(t, 4, g)
	now := time.Unix(0, 0)
	g.set(1, true)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("10.0.0.%d:1", i)
		path := fmt.Sprintf("/g0/p%d.html", i)
		out := c.Route(key, path, 1024, now)
		if !out.OK {
			t.Fatal("unroutable with three healthy backends")
		}
		if out.Server == 1 {
			t.Fatalf("new binding %d placed on degraded backend 1", i)
		}
		c.Done(key, out.Server, path, false, false)
	}
}

func TestDegradedSessionRebindsProgressively(t *testing.T) {
	g := newGrayMask(4)
	c := newGrayCore(t, 4, g)
	now := time.Unix(0, 0)
	// Bind a batch of sessions while healthy — distinct paths so the
	// locality-first policy spreads them — and note where each landed.
	keys := make([]string, 32)
	bound := make([]int, len(keys))
	perBackend := make([]int, 4)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.1.0.%d:1", i)
		path := fmt.Sprintf("/g1/s%d.html", i)
		out := c.Route(keys[i], path, 1024, now)
		c.Done(keys[i], out.Server, path, false, false)
		bound[i] = out.Server
		perBackend[out.Server]++
	}
	victim := 0
	for s, n := range perBackend {
		if n > perBackend[victim] {
			victim = s
		}
	}
	if perBackend[victim] == 0 {
		t.Fatal("no sessions bound anywhere")
	}
	// Degrade the victim: each bound session must move on its next
	// request — and the move is counted as a gray rebind.
	g.set(victim, true)
	for i, key := range keys {
		path := fmt.Sprintf("/g1/t%d.html", i)
		out := c.Route(key, path, 1024, now)
		if out.Server == victim {
			t.Fatal("session stayed pinned to degraded backend")
		}
		c.Done(key, out.Server, path, false, false)
	}
	if got := c.Stats().GrayRebinds; got != int64(perBackend[victim]) {
		t.Errorf("GrayRebinds = %d, want %d (sessions that were on backend %d)",
			got, perBackend[victim], victim)
	}
	g.set(victim, false)
	// Recovery: clearing the flag restores normal routing with no
	// lingering exclusion.
	landed := false
	for i := 0; i < 64 && !landed; i++ {
		key := fmt.Sprintf("10.1.1.%d:1", i)
		out := c.Route(key, fmt.Sprintf("/g1/q%d.html", i), 1024, now)
		landed = landed || out.Server == victim
		c.Done(key, out.Server, fmt.Sprintf("/g1/q%d.html", i), false, false)
	}
	if !landed {
		t.Error("recovered backend never took a new binding")
	}
}

func TestDegradedAllFallsBackToAvail(t *testing.T) {
	// Degrading is bounded by the caller (the detector never ejects a
	// majority), but the core must stay safe if every backend reads
	// degraded: the accept mask falls back to availability.
	g := newGrayMask(2)
	c := newGrayCore(t, 2, g)
	now := time.Unix(0, 0)
	g.set(0, true)
	g.set(1, true)
	out := c.Route("10.2.0.1:1", "/g0/p0.html", 1024, now)
	if !out.OK {
		t.Fatal("unroutable with all backends degraded — accept mask must fall back to avail")
	}
	c.Done("10.2.0.1:1", out.Server, "/g0/p0.html", false, false)
}

func TestRebookPrefersFileHolder(t *testing.T) {
	c := newGrayCore(t, 4, nil)
	now := time.Unix(0, 0)
	const path = "/g0/hot.html"
	// Teach the optimistic locality map that some backend holds the
	// file, then keep that booking open so the holder carries load 1
	// while the others sit idle — plain least-loaded would avoid it.
	holderKey := ""
	holder := -1
	for i := 0; holder < 0; i++ {
		key := fmt.Sprintf("10.3.1.%d:1", i)
		out := c.Route(key, path, 1024, now)
		if !out.OK {
			t.Fatal("unroutable")
		}
		if i >= 8 || out.Server == 3 {
			holderKey, holder = key, out.Server
			break
		}
		// Not the designated victim: fail the attempt so the optimistic
		// locality claim is dropped again, and release the booking.
		c.Done(key, out.Server, path, true, false)
	}
	srv, ok := c.Rebook("10.3.9.9:1", path, (holder+1)%4, now)
	if !ok {
		t.Fatal("Rebook found no target")
	}
	if srv != holder {
		t.Errorf("Rebook picked %d, want holder %d despite its higher load", srv, holder)
	}
	c.Done("10.3.9.9:1", srv, path, false, true)
	c.Done(holderKey, holder, path, false, false)
}

// TestRebookSkipsDynamicLocality pins the failover booking to Route's
// rule: a dynamic response is uncacheable, so the backend a failed
// attempt moved to must not be believed to hold it — otherwise
// locality-first policies would route the path there by locality.
func TestRebookSkipsDynamicLocality(t *testing.T) {
	c := newGrayCore(t, 4, nil)
	now := time.Unix(0, 0)
	const key, path = "10.3.2.1:1", "/x.cgi"
	out := c.Route(key, path, 1024, now)
	if !out.OK {
		t.Fatal("unroutable")
	}
	c.Done(key, out.Server, path, true, false)
	next, ok := c.Rebook(key, path, out.Server, now)
	if !ok {
		t.Fatal("Rebook found no target")
	}
	if c.LocalityContains(next, path) {
		t.Errorf("Rebook put dynamic %s into backend %d's locality view", path, next)
	}
	c.Done(key, next, path, false, true)
}

func TestHedgeTargetAvoidsPrimaryAndDegraded(t *testing.T) {
	g := newGrayMask(3)
	c := newGrayCore(t, 3, g)
	now := time.Unix(0, 0)
	g.set(1, true)
	for i := 0; i < 32; i++ {
		s, ok := c.HedgeTarget("/g0/p0.html", 0, now)
		if !ok {
			t.Fatal("no hedge target with backend 2 healthy")
		}
		if s == 0 || s == 1 {
			t.Fatalf("HedgeTarget picked %d (primary 0, degraded 1)", s)
		}
	}
	// With every alternative degraded there is nothing worth hedging to.
	g.set(2, true)
	if s, ok := c.HedgeTarget("/g0/p0.html", 0, now); ok {
		t.Fatalf("HedgeTarget returned %d with all alternatives degraded", s)
	}
}

func TestHedgeBookingLifecycleAndCap(t *testing.T) {
	c := newGrayCore(t, 2, nil)
	const path = "/g0/p0.html"
	if !c.TryBeginHedge(1, path, 2) || !c.TryBeginHedge(1, path, 2) {
		t.Fatal("hedge bookings under the cap refused")
	}
	if c.TryBeginHedge(1, path, 2) {
		t.Fatal("hedge booking over the cap accepted")
	}
	if got := c.HedgeLoad(1); got != 2 {
		t.Fatalf("HedgeLoad = %d, want 2", got)
	}
	c.FinishHedge(1, path, false, true) // hedge won
	c.FinishHedge(1, path, true, false) // hedge canceled/failed
	if got := c.HedgeLoad(1); got != 0 {
		t.Fatalf("HedgeLoad = %d after release, want 0", got)
	}
	if got := c.Loads()[1]; got != 0 {
		t.Fatalf("Loads[1] = %d after hedges released, want 0", got)
	}
	st := c.Stats()
	if st.HedgesFired != 2 || st.HedgeWins != 1 {
		t.Fatalf("HedgesFired=%d HedgeWins=%d, want 2/1", st.HedgesFired, st.HedgeWins)
	}
	if n := c.InFlightFiles(); n != 0 {
		t.Fatalf("%d files in flight after hedges released", n)
	}
}

// TestNewRejectsNegativeHedgeCap: the default only replaced 0, so a
// negative cap reached the hedge booking, which read it as "uncapped".
// Both adapters build their gray layer here, so this is the one check.
func TestNewRejectsNegativeHedgeCap(t *testing.T) {
	cfg := dispatch.Config{Backends: 2, Policy: policy.NewWRR(2),
		Gray: &dispatch.GrayConfig{Hedge: true, HedgeCap: -1}}
	if _, err := dispatch.New(cfg); err == nil || !strings.Contains(err.Error(), "HedgeCap") {
		t.Fatalf("HedgeCap -1: err = %v, want an error naming HedgeCap", err)
	}
	cfg.Gray.HedgeCap = 0
	if _, err := dispatch.New(cfg); err != nil {
		t.Fatalf("HedgeCap 0 (the default): %v", err)
	}
	// Gray's detector is the Degraded mask; a second mask is an error,
	// not a silent overwrite.
	cfg.Degraded = func(int) bool { return false }
	if _, err := dispatch.New(cfg); err == nil || !strings.Contains(err.Error(), "Degraded") {
		t.Fatalf("Gray with Degraded: err = %v, want an error naming Degraded", err)
	}
}

// TestFailoverWakesASleeper: when the failed attempt's backend was the
// only one available, the retry goes to the backend WakeFallback brings
// back, as Route's own fallback does; with nothing to wake the failed
// attempt is left to the caller.
func TestFailoverWakesASleeper(t *testing.T) {
	awake := []bool{true, false}
	asleep := true // backend 1 hibernates until woken
	c, err := dispatch.New(dispatch.Config{Backends: 2, Policy: policy.NewWRR(2),
		Available: func(s int, _ time.Time) bool { return awake[s] },
		WakeFallback: func(time.Time) (int, bool) {
			if !asleep {
				return 0, false
			}
			asleep, awake[1] = false, true
			return 1, true
		}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	const key, path = "10.3.4.1:1", "/g0/p0.html"
	out := c.Route(key, path, 1024, now)
	if !out.OK || out.Server != 0 {
		t.Fatalf("Route = %+v, want backend 0, the only one awake", out)
	}
	awake[0] = false // it crashes with the request in flight
	next, ok := c.Failover(key, path, 0, 0, now)
	if !ok || next != 1 || asleep {
		t.Fatalf("Failover = %d %t, want the woken backend 1", next, ok)
	}
	c.Done(key, next, path, false, true)
	if st := c.Stats(); st.Failovers != 1 || st.Errors != 1 || c.Loads()[0] != 0 || c.Loads()[1] != 0 {
		t.Fatalf("stats %+v loads %v, want one failover, one error, no load", st, c.Loads())
	}
	// Backend 1 now fails the same way, with no sleeper left to wake:
	// Failover declines and leaves the attempt booked for the caller.
	out = c.Route(key, path, 1024, now)
	if !out.OK || out.Server != 1 {
		t.Fatalf("Route = %+v, want backend 1, the only one awake", out)
	}
	awake[1] = false
	if next, ok := c.Failover(key, path, 1, 0, now); ok {
		t.Fatalf("Failover went to %d with nothing up or asleep", next)
	}
	if got := c.Loads()[1]; got != 1 {
		t.Fatalf("a declined Failover released the attempt: load %d, want 1", got)
	}
	c.Done(key, 1, path, true, false)
}

// TestHedgeIsOneCall: the gray layer's Hedge books under the defaulted
// cap of 2, and FinishHedge counts every finished hedge as a win or a
// cancel.
func TestHedgeIsOneCall(t *testing.T) {
	c, err := dispatch.New(dispatch.Config{Backends: 2, Policy: policy.NewWRR(2),
		Gray: &dispatch.GrayConfig{Hedge: true}})
	if err != nil {
		t.Fatal(err)
	}
	const path = "/g0/p0.html"
	now := time.Unix(0, 0)
	if c.HedgeDelay(path) != 0 {
		t.Fatal("a hedge delay before the detector has samples")
	}
	for i := 0; i < 2; i++ {
		if s, ok := c.Hedge(path, 0, now); !ok || s != 1 {
			t.Fatalf("hedge %d: got %d %t, want backend 1", i, s, ok)
		}
	}
	if s, ok := c.Hedge(path, 0, now); ok {
		t.Fatalf("a third hedge went to %d past the cap of 2", s)
	}
	c.FinishHedge(1, path, false, true)
	c.FinishHedge(1, path, true, false)
	if g := c.Gray(); g.HedgesFired != 2 || g.HedgeWins != 1 || g.HedgeCancels != 1 {
		t.Fatalf("gray stats %+v, want 2 fired = 1 win + 1 cancel", g)
	}
}

// TestDegradedHookNoopKeepsDecisionStream pins the narrowed accept-mask
// plumbing to the historical behavior: a core with an always-false
// Degraded hook must emit byte-identical decision records to one with
// no hook at all.
func TestDegradedHookNoopKeepsDecisionStream(t *testing.T) {
	run := func(withHook bool) []dispatch.Record {
		var recs []dispatch.Record
		cfg := dispatch.Config{
			Backends: 4,
			Policy:   policy.NewPRORD(policy.Thresholds{}),
			Recorder: func(r dispatch.Record) { recs = append(recs, r) },
		}
		if withHook {
			cfg.Degraded = func(int) bool { return false }
		}
		c, err := dispatch.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(0, 0)
		rng := randutil.New(99)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("10.9.%d.%d:1", rng.Intn(8), rng.Intn(32))
			path := fmt.Sprintf("/g%d/p%d.html", rng.Intn(4), rng.Intn(64))
			out := c.Route(key, path, 1024, now)
			if out.OK {
				c.Done(key, out.Server, path, false, false)
			}
		}
		return recs
	}
	plain, hooked := run(false), run(true)
	if !reflect.DeepEqual(plain, hooked) {
		t.Fatal("always-false Degraded hook changed the decision stream")
	}
}

// TestCoreGrayDegradedChurn is the concurrency storm for the gray
// wiring, aimed at the race detector (`make race`): workers
// drive the full booking lifecycle — Route, failed attempts, Rebook,
// hedge bookings, Done — while a flipper goroutine keeps toggling the
// Degraded mask, rewriting the accept set mid-flight. After the storm
// every book must balance exactly.
func TestCoreGrayDegradedChurn(t *testing.T) {
	const backends = 4
	g := newGrayMask(backends)
	c, err := dispatch.New(dispatch.Config{
		Backends:        backends,
		Policy:          policy.NewPRORD(policy.Thresholds{}),
		Degraded:        g.degraded,
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
			rng := randutil.New(int64(2000 + w))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("10.2.%d.%d:99", w, rng.Intn(64))
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
				case 1, 2:
					// Hedged attempt: book a backup, settle both legs.
					if target, ok := c.HedgeTarget(path, out.Server, now); ok &&
						c.TryBeginHedge(target, path, 2) {
						c.FinishHedge(target, path, false, rng.Intn(2) == 0)
					}
					c.Done(key, out.Server, path, false, false)
				default:
					c.Done(key, out.Server, path, false, false)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		rng := randutil.New(11)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// At most one backend degraded at a time, so a route target
			// always exists even while every stripe rewrites.
			s := rng.Intn(backends)
			g.set(s, true)
			runtime.Gosched()
			g.set(s, false)
		}
	}()

	wg.Wait()
	close(stop)
	flip.Wait()

	for s, l := range c.Loads() {
		if l != 0 {
			t.Errorf("backend %d still has %d booked requests after drain", s, l)
		}
		if n := c.HedgeLoad(s); n != 0 {
			t.Errorf("backend %d still has %d hedge bookings after drain", s, n)
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
	if st.HedgeWins+st.HedgesFired == 0 {
		t.Error("storm never exercised the hedge path")
	}
}
