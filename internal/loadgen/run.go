package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"prord/internal/httpfront"
	"prord/internal/metrics"
	"prord/internal/overload"
)

// sessionClient builds one replayed session's HTTP client. Each session
// gets its own transport: the distributor tracks sessions by keep-alive
// connection, and the shared http.DefaultTransport caps idle connections
// per host at two, so concurrent workers sharing it would evict each
// other's connections and fragment every session into many short ones —
// breaking both locality routing and the admission controller's
// in-progress-session bypass.
func sessionClient() *http.Client {
	return &http.Client{Transport: &http.Transport{}}
}

// tierTransitions converts the estimator's ladder history to the
// artifact's stable representation (integer milliseconds, tier names).
func tierTransitions(ts []overload.Transition) []metrics.TierTransition {
	var out []metrics.TierTransition
	for _, t := range ts {
		out = append(out, metrics.TierTransition{
			AtMS: t.At.Milliseconds(),
			From: t.From.String(),
			To:   t.To.String(),
		})
	}
	return out
}

// liveStats is what the client workers measure: latency histograms
// split by warmup vs measurement window, plus error, shed and timing
// totals.
type liveStats struct {
	warm             metrics.Histogram
	meas             metrics.Histogram
	errors           int64
	shed             int64
	affinityBreaches int64
	elapsed          time.Duration
}

// workerLocal is one worker's lock-free accumulator, merged after the
// run so the hot path never contends.
type workerLocal struct {
	warm             metrics.Histogram
	meas             metrics.Histogram
	errors           int64
	shed             int64
	affinityBreaches int64
}

// merge folds per-worker accumulators into campaign totals.
func merge(locals []workerLocal, elapsed time.Duration) *liveStats {
	out := &liveStats{elapsed: elapsed}
	for i := range locals {
		out.warm.Merge(&locals[i].warm)
		out.meas.Merge(&locals[i].meas)
		out.errors += locals[i].errors
		out.shed += locals[i].shed
		out.affinityBreaches += locals[i].affinityBreaches
	}
	return out
}

// affinityTracker asserts the fleet's session-affinity invariant over
// one replayed session: every response on the session's connection
// must carry the same replica id (the ring owner answers, wherever the
// request entered). A session that saw two replicas is one breach.
type affinityTracker struct {
	seen     string
	breached bool
}

func (a *affinityTracker) observe(replica string) {
	if replica == "" || a.breached {
		return // not a fleet response, or already counted
	}
	if a.seen == "" {
		a.seen = replica
		return
	}
	if replica != a.seen {
		a.breached = true
	}
}

// breaches reports 1 if the session broke affinity, else 0.
func (a *affinityTracker) breaches() int64 {
	if a.breached {
		return 1
	}
	return 0
}

// reset forgets the pinned replica but keeps any recorded breach.
// Called after a transport error: the client may have re-dialed, and a
// fresh connection is legitimately a fresh session with a new owner.
func (a *affinityTracker) reset() {
	a.seen = ""
}

// fetch issues one GET and fully consumes the response; lat runs from
// `from`, the instant the caller holds the request was due, to the last
// body byte. Transport failures and non-2xx statuses count as errors —
// except a 503 carrying the front-end's shed marker, which is the
// admission controller doing its job under overload: those are
// reported as shed, not errored, and contribute no latency sample.
// replica is the answering fleet replica's id header ("" outside fleet
// mode), feeding the session-affinity assertion.
func fetch(client *http.Client, url string, from time.Time) (lat time.Duration, shed bool, replica string, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, false, "", err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	shedResp := resp.StatusCode == http.StatusServiceUnavailable &&
		resp.Header.Get(httpfront.ShedHeader) != ""
	replica = resp.Header.Get(httpfront.ReplicaHeader)
	resp.Body.Close()
	d := time.Since(from)
	if err != nil {
		return 0, false, "", err
	}
	if shedResp {
		return 0, true, replica, nil
	}
	if resp.StatusCode >= 300 {
		return 0, false, replica, fmt.Errorf("loadgen: GET %s: status %d", url, resp.StatusCode)
	}
	return d, false, replica, nil
}

// runOpen replays the precomputed open-loop schedule: each worker walks
// its own arrival list, sleeping until each request's absolute due time
// and issuing it regardless of earlier completions (catching up without
// skipping when it falls behind, so the issued count stays
// deterministic). Latency is timed from the due time, not from the
// send, so the queueing a late worker causes shows in its samples.
// Warmup classification uses the scheduled arrival offset, not the wall
// clock, so the warm/measured split is identical across runs. start
// anchors the schedule and is shared with the fault runner so outage
// offsets line up with arrival offsets. In fleet mode workers spray
// round-robin over the replicas' fronts (worker w → front w mod k) — a
// worker's keep-alive connection is one session, so the spray is the
// deterministic stand-in for an L4 switch pinning connections to
// distributors.
func (h *Harness) runOpen(c *liveCluster, start time.Time) *liveStats {
	locals := make([]workerLocal, len(h.open))
	var wg sync.WaitGroup
	for w := range h.open {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frontURL := c.fronts[w%len(c.fronts)].URL
			client := sessionClient()
			defer client.CloseIdleConnections()
			l := &locals[w]
			var aff affinityTracker
			for _, a := range h.open[w] {
				due := start.Add(a.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				lat, shed, replica, err := fetch(client, frontURL+h.eval.Requests[a.idx].Path, due)
				if err != nil {
					l.errors++
					aff.reset()
					continue
				}
				aff.observe(replica)
				if shed {
					l.shed++
					continue
				}
				if a.at < h.cfg.Warmup {
					l.warm.Observe(lat)
				} else {
					l.meas.Observe(lat)
				}
			}
			l.affinityBreaches += aff.breaches()
		}(w)
	}
	wg.Wait()
	return merge(locals, time.Since(start))
}

// runClosed replays session scripts with cfg.Concurrency clients.
// Scripts are assigned round-robin by index so the partition is
// deterministic; each session runs on its own keep-alive connection
// (sessions are what the distributor tracks by connection), pausing
// Think before each page request. Issuing stops at the Duration
// deadline; in-flight requests are allowed to finish. In fleet mode
// sessions spray round-robin over the replicas' fronts (session s →
// front s mod k), so roughly (k-1)/k of sessions enter through a
// non-owner and exercise the forwarding path.
func (h *Harness) runClosed(c *liveCluster, start time.Time) *liveStats {
	locals := make([]workerLocal, h.cfg.Concurrency)
	var wg sync.WaitGroup
	deadline := start.Add(h.cfg.Duration)
	warmEnd := start.Add(h.cfg.Warmup)
	for w := 0; w < h.cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := &locals[w]
			for s := w; s < len(h.scripts); s += h.cfg.Concurrency {
				if !time.Now().Before(deadline) {
					return
				}
				frontURL := c.fronts[s%len(c.fronts)].URL
				client := sessionClient()
				var aff affinityTracker
				for i, idx := range h.scripts[s].Reqs {
					req := &h.eval.Requests[idx]
					// Users pause before following a link; embedded
					// objects are fetched immediately with the page.
					if i > 0 && !req.Embedded && h.cfg.Think > 0 {
						time.Sleep(h.cfg.Think)
					}
					if !time.Now().Before(deadline) {
						break
					}
					t0 := time.Now()
					lat, shed, replica, err := fetch(client, frontURL+req.Path, t0)
					if err != nil {
						l.errors++
						aff.reset()
						continue
					}
					aff.observe(replica)
					if shed {
						l.shed++
						continue
					}
					if t0.Before(warmEnd) {
						l.warm.Observe(lat)
					} else {
						l.meas.Observe(lat)
					}
				}
				l.affinityBreaches += aff.breaches()
				client.CloseIdleConnections()
			}
		}(w)
	}
	wg.Wait()
	return merge(locals, time.Since(start))
}

// Run benchmarks one policy: boots a fresh live cluster, replays the
// harness's schedule against it, and reduces the measurements to a
// BenchRun. When cfg.CompareSim is set the same workload is also played
// through the discrete-event simulator and the deltas attached.
func (h *Harness) Run(polName string) (*metrics.BenchRun, error) {
	polName, err := CanonicalPolicy(polName)
	if err != nil {
		return nil, err
	}
	c, err := h.startCluster(polName)
	if err != nil {
		return nil, err
	}
	defer c.close()

	start := time.Now()
	stopFaults := h.startFaults(c, start)
	stopScale := h.startScaleEvents(c, start)
	var live *liveStats
	switch h.cfg.Mode {
	case OpenLoop:
		live = h.runOpen(c, start)
	case ClosedLoop:
		live = h.runClosed(c, start)
	default:
		stopScale()
		stopFaults()
		return nil, fmt.Errorf("loadgen: unknown mode %d", int(h.cfg.Mode))
	}
	stopScale()
	stopFaults()
	c.drainPrefetches(time.Second)

	run := h.reduce(polName, c, live)
	if h.cfg.CompareSim {
		sim, err := h.simCompare(polName, run)
		if err != nil {
			return nil, err
		}
		run.Sim = sim
	}
	return run, nil
}

// reduce folds the live cluster's counters and the workers' histograms
// into one artifact cell.
func (h *Harness) reduce(polName string, c *liveCluster, live *liveStats) *metrics.BenchRun {
	run := &metrics.BenchRun{
		Name:           polName,
		Requests:       live.meas.Count(),
		WarmupRequests: live.warm.Count(),
		Errors:         live.errors,
		Shed:           live.shed,
		Latency:        live.meas.Summary(),
	}
	front := c.obs.summary()
	run.FrontLatency = &front

	// Open loop offers a schedule spanning exactly Duration, so the
	// nominal measurement window keeps throughput deterministic for
	// error-free runs; closed loop finishes when its sessions do.
	window := h.cfg.Duration - h.cfg.Warmup
	if h.cfg.Mode == ClosedLoop {
		window = live.elapsed - h.cfg.Warmup
	}
	if window > 0 {
		run.ThroughputRPS = metrics.Round(float64(run.Requests)/window.Seconds(), 1)
	}

	st := c.fleetStats()
	run.Handoffs = st.Handoffs
	run.Prefetches = st.Prefetches
	run.Failovers = st.Failovers
	run.Retries = st.Retries
	run.PrefetchShed = st.PrefetchShed
	run.PrefetchHintsDropped = st.PrefetchHintsDropped
	if h.cfg.Overload != nil {
		// With admission control on, throughput of successfully served
		// requests is the run's goodput — the headline overload metric.
		run.GoodputRPS = run.ThroughputRPS
		if ov := c.dist.Overload(); ov != nil {
			run.TierTransitions = tierTransitions(ov.Transitions)
		}
	}
	if st.Requests > 0 {
		run.DispatchPerRequest = metrics.Round(float64(st.Dispatches)/float64(st.Requests), 3)
	}
	run.LoadSkew = metrics.Skew(st.PerBackend)
	if ps := c.dist.Pool(); ps != nil {
		run.Autoscale = &metrics.AutoscaleSummary{
			Joins:            ps.Joins,
			Drains:           ps.Drains,
			SessionsRebooked: ps.SessionsRebooked,
			FinalSize:        ps.Size,
		}
	}
	if g := c.dist.Gray(); g != nil {
		run.Gray = &metrics.GraySummary{
			Ejections:    g.Ejections,
			Recoveries:   g.Recoveries,
			GrayRebinds:  g.GrayRebinds,
			HedgesFired:  g.HedgesFired,
			HedgeWins:    g.HedgeWins,
			HedgeCancels: g.HedgeCancels,
		}
	}
	if fst := c.dist.Fleet(); fst != nil {
		fs := &metrics.FleetSummary{
			Replicas:         fst.Replicas,
			RingEpoch:        fst.RingEpoch,
			AffinityBreaches: live.affinityBreaches,
		}
		for _, d := range c.dists {
			cs := d.Core().Stats()
			fs.Forwards += cs.FleetForwards
			fs.OwnershipRebinds += cs.OwnershipRebinds
		}
		if st.Requests > 0 {
			fs.ForwardRate = metrics.Round(float64(fs.Forwards)/float64(st.Requests), 3)
		}
		run.Fleet = fs
	}

	// Breaker trips are summed across replicas: each front-end runs its
	// own breakers over the shared backends.
	trips := make([]int64, h.cfg.Backends)
	for _, d := range c.dists {
		for i, b := range d.Health() {
			if i < len(trips) {
				trips[i] += b.Trips
			}
		}
	}
	var hits, misses int64
	for i, b := range c.demos {
		bs := b.Stats()
		hits += bs.Hits
		misses += bs.Misses
		sample := metrics.BackendSample{Prefetches: bs.Prefetches}
		if i < len(st.PerBackend) {
			sample.Requests = st.PerBackend[i]
		}
		if i < len(trips) {
			sample.BreakerTrips = trips[i]
		}
		if lookups := bs.Hits + bs.Misses; lookups > 0 {
			sample.HitRate = metrics.Round(float64(bs.Hits)/float64(lookups), 3)
		}
		run.Backends = append(run.Backends, sample)
	}
	if lookups := hits + misses; lookups > 0 {
		run.HitRate = metrics.Round(float64(hits)/float64(lookups), 3)
	}
	return run
}

// RunAll benchmarks every configured policy in order and assembles the
// campaign result.
func (h *Harness) RunAll() (*Result, error) {
	res := &Result{Config: h.cfg, Workload: h.Workload()}
	for _, pol := range h.cfg.Policies {
		run, err := h.Run(pol)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}
