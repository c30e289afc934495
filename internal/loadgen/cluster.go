package loadgen

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/cluster"
	"prord/internal/httpfront"
	"prord/internal/metrics"
	"prord/internal/policy"
	"prord/internal/randutil"
)

// observer aggregates the distributor's per-request observations: the
// front-end's own service time for every demand request, including
// warmup (the callback has no way to know the measurement window).
type observer struct {
	mu    sync.Mutex
	front metrics.Histogram
}

func (o *observer) observe(obs httpfront.Observation) {
	o.mu.Lock()
	o.front.Observe(obs.Latency)
	o.mu.Unlock()
}

func (o *observer) summary() metrics.LatencySummary {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.front.Summary()
}

// gate sits between a backend's listener and the demo handler as the
// fault schedule's failure injector. Fail-stop (and the down half of a
// flap cycle) answers 503 to everything, like a crashed process behind
// a still-listening proxy; it counts demand requests that arrive while
// down — probes and prefetch hints are excluded, because the front-end
// is allowed (and expected) to probe a dead backend; it must not send
// it client traffic. The gray modes keep the process "up": slow delays
// every request — probes included, so the breaker keeps seeing
// successes and only latency-relative detection can catch it — and
// errrate fails a seeded fraction of demand requests while probes and
// prefetches sail through.
type gate struct {
	inner      http.Handler
	down       atomic.Bool
	slowNS     atomic.Int64  // extra per-request delay while a slow fault is active
	errBits    atomic.Uint64 // float64 bits of the active demand error rate
	downDemand atomic.Int64

	errMu  sync.Mutex
	errRng *randutil.Source
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	demand := r.Header.Get(httpfront.ProbeHeader) == "" && r.Header.Get(httpfront.PrefetchHeader) == ""
	if d := g.slowNS.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if g.down.Load() {
		if demand {
			g.downDemand.Add(1)
		}
		http.Error(w, "backend killed by fault schedule", http.StatusServiceUnavailable)
		return
	}
	if p := math.Float64frombits(g.errBits.Load()); p > 0 && demand {
		g.errMu.Lock()
		roll := g.errRng.Float64()
		g.errMu.Unlock()
		if roll < p {
			g.downDemand.Add(1)
			http.Error(w, "backend error injected by fault schedule", http.StatusServiceUnavailable)
			return
		}
	}
	g.inner.ServeHTTP(w, r)
}

// liveCluster is one booted policy-under-test: demo backends on real
// listeners behind one distributor, plus the front-end test server the
// workers talk to. Each backend sits behind a gate so the fault
// schedule can kill and revive it mid-run.
type liveCluster struct {
	demos   []*httpfront.DemoBackend
	gates   []*gate
	servers []*httptest.Server
	dist    *httpfront.Distributor
	front   *httptest.Server
	obs     *observer
}

// startCluster boots backends and the front-end for one policy. The
// mined model (and prefetching) is wired in only for PRORD, matching
// the sim comparison's feature gating: baselines route on policy state
// alone.
func (h *Harness) startCluster(polName string) (*liveCluster, error) {
	c := &liveCluster{obs: &observer{}}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var urls []*url.URL
	for i := 0; i < h.cfg.Backends; i++ {
		b := httpfront.NewDemoBackend(fmt.Sprintf("b%d", i), h.files, h.cfg.CacheBytes, h.cfg.MissLatency)
		c.demos = append(c.demos, b)
		// Each gate gets its own seeded stream for errrate rolls, so a
		// fault schedule replays the same per-backend error pattern for
		// every policy under the same -seed.
		g := &gate{inner: b, errRng: randutil.New(h.cfg.Seed + 0x677261 + int64(i))}
		c.gates = append(c.gates, g)
		srv := httptest.NewServer(g)
		c.servers = append(c.servers, srv)
		u, err := url.Parse(srv.URL)
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	pol, err := policy.ByName(polName, h.cfg.Backends, policy.Thresholds{})
	if err != nil {
		return nil, err
	}
	cfg := httpfront.Config{
		Backends:      urls,
		Policy:        pol,
		Observe:       c.obs.observe,
		Health:        h.cfg.Health,
		Retries:       h.cfg.FrontRetries,
		ProbeInterval: h.cfg.ProbeInterval,
		ProbeSeed:     h.cfg.Seed,
		Overload:      h.cfg.Overload,
		Gray:          h.cfg.Gray,
		Deadline:      h.cfg.Deadline,
	}
	if polName == "PRORD" {
		cfg.Miner = h.freshMiner()
		cfg.Prefetch = true
	}
	c.dist, err = httpfront.New(cfg)
	if err != nil {
		return nil, err
	}
	c.front = httptest.NewServer(c.dist)
	ok = true
	return c, nil
}

// startFaults launches the fault schedule against the cluster's gates,
// anchored at start — the same instant the replay workers measure
// their schedules from. The returned stop function cancels pending
// events and waits for the runner to exit; with no faults configured
// it is a no-op.
func (h *Harness) startFaults(c *liveCluster, start time.Time) (stop func()) {
	if len(h.cfg.Faults) == 0 {
		return func() {}
	}
	type event struct {
		at    time.Duration
		apply func()
	}
	var events []event
	for _, f := range h.cfg.Faults {
		g := c.gates[f.Server]
		switch f.Mode {
		case cluster.Slow:
			// The live gate cannot stretch the demo handler's internal
			// sleeps, so it models an xN dilation as a flat (N-1)x-miss
			// pre-delay on every request, probes included.
			unit := h.cfg.MissLatency
			if unit <= 0 {
				unit = time.Millisecond
			}
			delay := int64(float64(unit) * (f.Slowdown - 1))
			events = append(events, event{at: f.At, apply: func() { g.slowNS.Store(delay) }})
			if f.RecoverAt > 0 {
				events = append(events, event{at: f.RecoverAt, apply: func() { g.slowNS.Store(0) }})
			}
		case cluster.ErrRate:
			bits := math.Float64bits(f.ErrRate)
			events = append(events, event{at: f.At, apply: func() { g.errBits.Store(bits) }})
			if f.RecoverAt > 0 {
				events = append(events, event{at: f.RecoverAt, apply: func() { g.errBits.Store(0) }})
			}
		case cluster.Flap:
			// Down at At, toggling every period; ValidateFailures guarantees
			// RecoverAt bounds the schedule, and recovery always ends up.
			down := true
			for t := f.At; t < f.RecoverAt; t += f.FlapPeriod {
				d := down
				events = append(events, event{at: t, apply: func() { g.down.Store(d) }})
				down = !down
			}
			events = append(events, event{at: f.RecoverAt, apply: func() { g.down.Store(false) }})
		default: // fail-stop
			events = append(events, event{at: f.At, apply: func() { g.down.Store(true) }})
			if f.RecoverAt > 0 {
				events = append(events, event{at: f.RecoverAt, apply: func() { g.down.Store(false) }})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTimer(time.Hour)
		defer t.Stop()
		for _, e := range events {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(time.Until(start.Add(e.at)))
			select {
			case <-quit:
				return
			case <-t.C:
			}
			e.apply()
		}
	}()
	return func() { close(quit); <-done }
}

// drainPrefetches waits for the background prefetcher to go quiet: the
// backends' received-prefetch total must hold steady for one settle
// interval (or the deadline expires). Called before snapshotting stats
// so in-flight hints do not skew the cache numbers.
func (c *liveCluster) drainPrefetches(timeout time.Duration) {
	const settle = 50 * time.Millisecond
	deadline := time.Now().Add(timeout)
	last := c.prefetchCount()
	for time.Now().Before(deadline) {
		time.Sleep(settle)
		cur := c.prefetchCount()
		if cur == last {
			return
		}
		last = cur
	}
}

func (c *liveCluster) prefetchCount() int64 {
	var n int64
	for _, b := range c.demos {
		n += b.Stats().Prefetches
	}
	return n
}

// close tears the cluster down in reverse boot order. Safe on a
// partially built cluster.
func (c *liveCluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.dist != nil {
		c.dist.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}
