package dispatch_test

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/cache"
	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// smallMiner mines a small synthetic site.
func smallMiner(t *testing.T) *mining.Miner {
	t.Helper()
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 800.0/30000.0, 7777)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := full.Split(0.5)
	return mining.Mine(train, mining.Options{})
}

// idSpy routes with PRORD and records the largest file id it was asked
// about and how many requests came cold.
type idSpy struct {
	policy.Policy
	max  atomic.Int32
	cold atomic.Int64
}

func (p *idSpy) Route(req policy.Request, view policy.View) policy.Decision {
	if req.File == policy.ColdFile {
		p.cold.Add(1)
	}
	for m := p.max.Load(); int32(req.File) > m && !p.max.CompareAndSwap(m, int32(req.File)); m = p.max.Load() {
	}
	return p.Policy.Route(req, view)
}

// TestFileFloodIsBounded sends ten times the intern table's cap in
// distinct paths through Route, PlanInto and Done on a live-mode core,
// from two goroutines. The intern table and the file slab stop at the
// cap, the policy is never handed an id past it (its target tables are
// indexed by the ids it is handed), every cold path still routes, the
// books balance and the session table stays sound. Navigation tracking
// skips cold pages, so the model learns no context past the cap and
// the tracker holds no more windows than the core holds sessions.
func TestFileFloodIsBounded(t *testing.T) {
	const backends = 4
	spy := &idSpy{Policy: policy.NewPRORD(policy.Thresholds{})}
	miner := smallMiner(t)
	if miner.Nav != mining.OnlinePredictor(miner.Model) {
		t.Fatal("setup: the tracker learns into a predictor other than the model")
	}
	contexts := miner.Model.Contexts()
	c, err := dispatch.New(dispatch.Config{
		Backends:        backends,
		Policy:          spy,
		Miner:           miner,
		Features:        dispatch.Features{Bundle: true, NavPrefetch: true},
		LocalityEntries: 512,
		MaxSessions:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, mined, _ := c.FileTableSize()
	limit := mined + dispatch.MaxLiveFiles
	now := time.Unix(0, 0)

	const flood, workers = 10 * dispatch.MaxLiveFiles, 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var plan dispatch.Plan
			keys := make([]string, 64)
			for k := range keys {
				keys[k] = fmt.Sprintf("10.9.%d.%d:80", w, k)
			}
			for i := w; i < flood; i += workers {
				key := keys[i%len(keys)]
				path := "/flood/" + strconv.Itoa(i) + ".html"
				out := c.Route(key, path, 100, now)
				if !out.OK {
					t.Errorf("%s found no backend with every backend up", path)
					return
				}
				c.PlanInto(&plan, key, out.Server, path, now)
				c.Done(key, out.Server, path, false, false)
			}
		}(w)
	}
	wg.Wait()

	ids, files, cells := c.FileTableSize()
	if ids != limit || files != limit || cells != (limit+1)*backends {
		t.Errorf("after %d distinct paths: %d ids, %d records, %d cells; want %d, %d and %d",
			flood, ids, files, cells, limit, limit, (limit+1)*backends)
	}
	if got := int(spy.max.Load()); got != limit-1 {
		t.Errorf("the policy saw file ids up to %d, want up to %d", got, limit-1)
	}
	if got, want := spy.cold.Load(), int64(flood-dispatch.MaxLiveFiles); got != want {
		t.Errorf("the policy routed %d cold requests, want %d", got, want)
	}
	if got, want := miner.Model.Contexts(), contexts+dispatch.MaxLiveFiles; got > want {
		t.Errorf("after %d distinct pages the model holds %d contexts, want at most %d", flood, got, want)
	}
	if got := c.TrackerSlots(); got > 256 {
		t.Errorf("the tracker holds %d window slots, want at most MaxSessions (256)", got)
	}

	// A cold path books, fails over and hedges like any other, with no
	// per-file state to leave behind.
	const key, cold = "10.9.9.9:80", "/flood/cold.html"
	if c.InternID(cold) != policy.ColdFile {
		t.Fatalf("%s is not cold past the cap", cold)
	}
	out := c.Route(key, cold, 100, now)
	if next, ok := c.Failover(key, cold, out.Server, 0, now); ok {
		c.Done(key, next, cold, false, true)
	} else {
		c.Done(key, out.Server, cold, true, false)
	}
	if c.TryBeginHedge((out.Server+1)%backends, cold, 2) {
		c.FinishHedge((out.Server+1)%backends, cold, false, false)
	}
	if c.PrefetchedHere(out.Server, cold) || c.LocalityContains(out.Server, cold) {
		t.Error("a cold path was marked or learned")
	}

	for s, l := range c.Loads() {
		if l != 0 {
			t.Errorf("backend %d still has %d booked requests after drain", s, l)
		}
	}
	if n := c.InFlightFiles(); n != 0 {
		t.Errorf("%d files still in flight after drain", n)
	}
	total, busy, problem := c.SessionCheck()
	if problem != "" || busy != 0 || total > 256 {
		t.Errorf("session table: %d sessions, %d busy, problem %q; want at most 256, none busy, no problem", total, busy, problem)
	}
}

// TestSessionFloodIsBounded sends 200,000 distinct connection keys
// through Route, PlanInto and Done, eight requests in flight at a time,
// past MaxSessions: the session slab and the tracker's window slab stop
// at MaxSessions plus the requests in flight, and the session table
// drains sound.
func TestSessionFloodIsBounded(t *testing.T) {
	const flood, maxSessions, inFlight = 200000, 256, 8
	miner := smallMiner(t)
	c, err := dispatch.New(dispatch.Config{
		Backends:    4,
		Policy:      policy.NewPRORD(policy.Thresholds{}),
		Miner:       miner,
		Features:    dispatch.Features{Bundle: true, NavPrefetch: true},
		MaxSessions: maxSessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pages []string
	for _, p := range miner.Bundles.Paths() {
		if !trace.IsEmbeddedPath(p) {
			pages = append(pages, p)
		}
	}
	now := time.Unix(0, 0)
	type booked struct {
		key, page string
		server    int
	}
	var ring [inFlight]booked
	var plan dispatch.Plan
	for i := 0; i < flood+inFlight; i++ {
		b := &ring[i%inFlight]
		if b.key != "" {
			c.Done(b.key, b.server, b.page, false, false)
		}
		if i >= flood {
			continue
		}
		key, page := "10.8."+strconv.Itoa(i)+":80", pages[i%len(pages)]
		out := c.Route(key, page, 100, now)
		c.PlanInto(&plan, key, out.Server, page, now)
		*b = booked{key, page, out.Server}
	}
	if got := c.SessionSlots(); got > maxSessions+inFlight {
		t.Errorf("after %d connections the session slab holds %d slots, want at most %d", flood, got, maxSessions+inFlight)
	}
	if got := c.TrackerSlots(); got > maxSessions+inFlight {
		t.Errorf("after %d connections the tracker holds %d window slots, want at most %d", flood, got, maxSessions+inFlight)
	}
	total, busy, problem := c.SessionCheck()
	if problem != "" || busy != 0 || total > maxSessions {
		t.Errorf("session table: %d sessions, %d busy, problem %q; want at most %d, none busy, no problem", total, busy, problem, maxSessions)
	}
}

// TestCoresFromOneMinerShareIDs builds two differently configured cores
// from one miner: both give the miner's paths the same ids, in the
// miner's sorted order, and the first other path the next one.
func TestCoresFromOneMinerShareIDs(t *testing.T) {
	miner := smallMiner(t)
	a, err := dispatch.New(dispatch.Config{Backends: 2, Policy: policy.NewLARD(policy.Thresholds{}), Miner: miner})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dispatch.New(dispatch.Config{Backends: 8, Policy: policy.NewPRORD(policy.Thresholds{}), Miner: miner,
		Features: dispatch.Features{Bundle: true, NavPrefetch: true}, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	paths := miner.Bundles.Paths()
	if len(paths) == 0 {
		t.Fatal("setup: the miner names no path")
	}
	// Interning in opposite orders must not matter.
	for i := len(paths) - 1; i >= 0; i-- {
		b.InternID(paths[i])
	}
	for i, p := range paths {
		if ia, ib := a.InternID(p), b.InternID(p); ia != dispatch.FileID(i) || ib != ia {
			t.Fatalf("%s: ids %d and %d, want %d", p, ia, ib, i)
		}
	}
	for _, c := range []*dispatch.Core{a, b} {
		if id := c.InternID("/not/mined.html"); id != dispatch.FileID(len(paths)) {
			t.Fatalf("the first path met live got id %d, want %d", id, len(paths))
		}
	}
}

// TestLocalityListsMatchLRU drives an optimistic core's locality lists
// through random bookings, failed and clean finishes and backend
// invalidations, and holds each backend's list to a cache.LRU fed the
// same events: the same files, evicted in the same recency order at
// the same bound. Dynamic files never enter either.
func TestLocalityListsMatchLRU(t *testing.T) {
	const backends, entries = 3, 5
	c, err := dispatch.New(dispatch.Config{Backends: backends, Policy: policy.NewPRORD(policy.Thresholds{}), LocalityEntries: entries})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*cache.LRU, backends)
	for s := range ref {
		ref[s] = cache.NewLRU(entries)
	}
	var paths []string
	for i := 0; i < 12; i++ {
		paths = append(paths, fmt.Sprintf("/f%d.html", i))
	}
	paths = append(paths, "/a.cgi", "/b.php")
	type booking struct {
		server int
		path   string
	}
	var open []booking
	rng := randutil.New(11)
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(20); {
		case r == 0:
			s := rng.Intn(backends)
			c.InvalidateBackend(s)
			ref[s] = cache.NewLRU(entries)
		case r < 11 || len(open) == 0:
			b := booking{rng.Intn(backends), paths[rng.Intn(len(paths))]}
			if !c.TryBeginHedge(b.server, b.path, 1<<30) {
				t.Fatal("hedge refused under an unreachable cap")
			}
			if !trace.IsDynamicPath(b.path) {
				ref[b.server].Insert(b.path, 1)
			}
			open = append(open, b)
		default:
			i := rng.Intn(len(open))
			b := open[i]
			open = append(open[:i], open[i+1:]...)
			failed := rng.Intn(3) == 0
			c.FinishHedge(b.server, b.path, failed, false)
			if failed {
				ref[b.server].Remove(b.path)
			}
		}
		for s := range ref {
			if got, want := c.LocalityLen(s), ref[s].Len(); got != want {
				t.Fatalf("op %d: backend %d's list holds %d files, the LRU %d", op, s, got, want)
			}
			for _, p := range paths {
				if got, want := c.LocalityContains(s, p), ref[s].Contains(p); got != want {
					t.Fatalf("op %d: backend %d holds %s: list %v, LRU %v", op, s, p, got, want)
				}
			}
		}
	}
}
