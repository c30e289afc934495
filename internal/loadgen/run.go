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
	warm    metrics.Histogram
	meas    metrics.Histogram
	errors  int64
	shed    int64
	elapsed time.Duration
}

// workerLocal is one worker's lock-free accumulator, merged after the
// run so the hot path never contends.
type workerLocal struct {
	warm   metrics.Histogram
	meas   metrics.Histogram
	errors int64
	shed   int64
}

// merge folds per-worker accumulators into campaign totals.
func merge(locals []workerLocal, elapsed time.Duration) *liveStats {
	out := &liveStats{elapsed: elapsed}
	for i := range locals {
		out.warm.Merge(&locals[i].warm)
		out.meas.Merge(&locals[i].meas)
		out.errors += locals[i].errors
		out.shed += locals[i].shed
	}
	return out
}

// fetch issues one GET and fully consumes the response; lat runs from
// `from`, the instant the caller holds the request was due, to the last
// body byte. Transport failures and non-2xx statuses count as errors —
// except a 503 carrying the front-end's shed marker, which is the
// admission controller doing its job under overload: those are
// reported as shed, not errored, and contribute no latency sample.
func fetch(client *http.Client, url string, from time.Time) (lat time.Duration, shed bool, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, false, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	shedResp := resp.StatusCode == http.StatusServiceUnavailable &&
		resp.Header.Get(httpfront.ShedHeader) != ""
	resp.Body.Close()
	d := time.Since(from)
	if err != nil {
		return 0, false, err
	}
	if shedResp {
		return 0, true, nil
	}
	if resp.StatusCode >= 300 {
		return 0, false, fmt.Errorf("loadgen: GET %s: status %d", url, resp.StatusCode)
	}
	return d, false, nil
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
// offsets line up with arrival offsets.
func (h *Harness) runOpen(c *liveCluster, start time.Time) *liveStats {
	locals := make([]workerLocal, len(h.open))
	var wg sync.WaitGroup
	for w := range h.open {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := sessionClient()
			defer client.CloseIdleConnections()
			l := &locals[w]
			for _, a := range h.open[w] {
				due := start.Add(a.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				lat, shed, err := fetch(client, c.front.URL+h.eval.Requests[a.idx].Path, due)
				if err != nil {
					l.errors++
					continue
				}
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
// deadline; in-flight requests are allowed to finish.
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
				client := sessionClient()
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
					lat, shed, err := fetch(client, c.front.URL+req.Path, t0)
					if err != nil {
						l.errors++
						continue
					}
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
	var live *liveStats
	switch h.cfg.Mode {
	case OpenLoop:
		live = h.runOpen(c, start)
	case ClosedLoop:
		live = h.runClosed(c, start)
	default:
		stopFaults()
		return nil, fmt.Errorf("loadgen: unknown mode %d", int(h.cfg.Mode))
	}
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

	st := c.dist.Stats()
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

	bh := c.dist.Health()
	var hits, misses int64
	for i, b := range c.demos {
		bs := b.Stats()
		hits += bs.Hits
		misses += bs.Misses
		sample := metrics.BackendSample{Prefetches: bs.Prefetches}
		if i < len(st.PerBackend) {
			sample.Requests = st.PerBackend[i]
		}
		if i < len(bh) {
			sample.BreakerTrips = bh[i].Trips
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
