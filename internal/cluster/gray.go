package cluster

import (
	"time"

	"prord/internal/health"
	"prord/internal/overload"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// FailureMode selects the injected failure kind; the load generator
// replays the same modes against live backends. The zero value is the
// original fail-stop crash; the other modes are gray failures the
// breaker alone cannot see.
type FailureMode int

const (
	// FailStop crashes the backend: memory lost, no new work, requests
	// caught on it retried elsewhere; recovery is cold.
	FailStop FailureMode = iota
	// Slow multiplies every service cost at the backend (CPU, disk,
	// internal network) by Failure.Slowdown. Nothing errors, so only
	// latency-relative detection catches it.
	Slow
	// ErrRate fails a seeded fraction of demand requests arriving at
	// the backend; the rest are served normally.
	ErrRate
	// Flap toggles the backend between up and a soft outage every
	// Failure.FlapPeriod. Unlike a crash the cache survives — it
	// models a flapping link, not a dying process.
	Flap
)

// GrayConfig enables the gray-failure resilience layer in the
// simulator: the relative slow-backend detector feeding the core's
// Degraded hook, and (optionally) hedged backup requests for static
// content — the same machinery the live front-end runs, driven by
// virtual time so runs stay byte-deterministic.
type GrayConfig struct {
	// Detector tunes the latency outlier detector; zero fields take
	// health.DetectorConfig defaults.
	Detector health.DetectorConfig
	// Hedge enables hedged backup requests: when a static request is
	// still unanswered after the detector's pooled-p95 hedge delay, one
	// backup is sent to the best non-degraded holder and the first
	// response wins. Hedging is suppressed at Saturated and Critical
	// tiers — duplicating work under overload makes the overload worse.
	Hedge bool
	// HedgeCap bounds outstanding hedges per backend; 0 defaults to 2,
	// and New rejects a negative cap.
	HedgeCap int
}

// withDefaults fills zero fields.
func (g GrayConfig) withDefaults() GrayConfig {
	g.Detector = g.Detector.WithDefaults()
	if g.HedgeCap == 0 {
		g.HedgeCap = 2
	}
	return g
}

// GrayResult summarizes the gray-failure layer after a run (nil in
// Result unless Config.Gray was set).
type GrayResult struct {
	// Ejections and Recoveries count detector state transitions.
	Ejections, Recoveries int64
	// GrayRebinds counts sessions moved off a degraded backend by the
	// progressive rebinding path.
	GrayRebinds int64
	// HedgesFired, HedgeWins and HedgeCancels count backup requests:
	// fired, finished first, and rendered moot by the primary.
	HedgesFired, HedgeWins, HedgeCancels int64
	// Backends is the detector's final per-backend view.
	Backends []health.BackendLatency
}

// grayState is the cluster's runtime state for injected gray failures
// and the resilience layer.
type grayState struct {
	detector *health.Detector
	cfg      GrayConfig

	slowX    []float64          // per backend: active service-time multiplier (0 = none)
	errRate  []float64          // per backend: active demand error probability
	errRng   []*randutil.Source // per backend: seeded streams for errrate rolls
	softDown []bool             // per backend: flap outage (cache survives)

	hedgeCancels int64
}

func newGrayState(backends int, cfg *GrayConfig) *grayState {
	g := &grayState{
		slowX:    make([]float64, backends),
		errRate:  make([]float64, backends),
		errRng:   make([]*randutil.Source, backends),
		softDown: make([]bool, backends),
	}
	if cfg != nil {
		g.cfg = cfg.withDefaults()
		g.detector = health.NewDetector(backends, g.cfg.Detector)
	}
	return g
}

// errRoll reports whether an errrate fault fails this arrival. Streams
// are lazily seeded per backend so fault-free backends consume no
// randomness and fault-free runs stay byte-identical to historical
// artifacts.
func (c *Cluster) errRoll(server int) bool {
	p := c.gray.errRate[server]
	if p <= 0 {
		return false
	}
	rng := c.gray.errRng[server]
	if rng == nil {
		rng = randutil.New(0x677261 + int64(server))
		c.gray.errRng[server] = rng
	}
	return rng.Float64() < p
}

// dilate applies an active slow fault's multiplier to a service cost.
func (c *Cluster) dilate(server int, d time.Duration) time.Duration {
	if f := c.gray.slowX[server]; f > 1 {
		return time.Duration(float64(d) * f)
	}
	return d
}

// observeServe feeds the detector one completed serve at a backend.
func (c *Cluster) observeServe(server int, issued, end time.Duration) {
	if c.gray.detector != nil {
		c.gray.detector.Observe(server, end-issued, c.vnow())
	}
}

// hedgeRace coordinates a primary serve and its hedged backup; exactly
// one of them delivers the response (continues the session), and each
// releases its own booking when it finishes. The losing leg can finish
// after the session has moved on to its next request, so the race
// carries its own copy of the flight and both legs work on that.
type hedgeRace struct {
	flight
	delivered     bool // a response reached the client
	backupOut     bool // a backup is booked and in flight
	primaryFailed bool // the primary finished on a down backend
	backup        int  // the backup's backend, once it is out
}

// maybeHedge arms a hedged backup for a routed static request: after
// the detector's hedge delay, if the primary has not delivered, send
// one backup to the best non-degraded holder. It returns the flight the
// primary continues on: the race's copy when one was armed, else f with
// no race (hedging off, or the request not hedgeable).
func (c *Cluster) maybeHedge(f *flight) *flight {
	f.race = nil
	g := c.gray
	if g.detector == nil || !g.cfg.Hedge {
		return f
	}
	if f.r.Dynamic || trace.IsDynamicPath(f.r.Path) {
		return f // generated content is not idempotent
	}
	delay := g.detector.HedgeDelay()
	if delay <= 0 {
		return f // not enough healthy samples yet
	}
	race := &hedgeRace{flight: *f}
	race.race = race
	c.eng.After(delay, func() {
		if race.delivered || c.remaining <= 0 {
			return
		}
		if c.core.Tier() >= overload.Saturated {
			return
		}
		target, ok := c.core.HedgeTarget(race.r.Path, race.server, c.vnow())
		if !ok || c.unavailable(target) {
			return
		}
		if !c.core.TryBeginHedge(target, race.r.Path, g.cfg.HedgeCap) {
			return
		}
		race.backupOut = true
		race.backup = target
		c.hedgeArrive(race)
	})
	return &race.flight
}

// hedgeArrive models the backup serve: the same memory/disk resolution
// as a demand arrival, minus the side channels (no remote fetch, no
// prefetch piggyback — the hedge is a plain GET at the target).
func (c *Cluster) hedgeArrive(race *hedgeRace) {
	r, server := race.r, race.backup
	b := c.backends[server]
	serve := func() {
		b.cpu.Schedule(
			c.dilate(server, c.cfg.Params.CPUPerRequest+perKBCost(r.Size, c.cfg.Params.CPUPerKB)),
			func(_, _ time.Duration) { c.hedgeComplete(race) },
		)
	}
	if b.store.Touch(r.Path) {
		serve()
		return
	}
	b.disk.Schedule(
		c.dilate(server, c.cfg.Params.DiskFixed+perKBCost(r.Size, c.cfg.Params.DiskPerKB)),
		func(_, _ time.Duration) {
			c.storeRead(server, r)
			serve()
		},
	)
}

// hedgeComplete finishes a backup serve: if it beat the primary it
// delivers the response and continues the session; otherwise it just
// releases its booking (a canceled hedge).
func (c *Cluster) hedgeComplete(race *hedgeRace) {
	server, path := race.backup, race.r.Path
	race.backupOut = false
	failed := c.down[server] || c.gray.softDown[server]
	if race.delivered || failed {
		c.core.FinishHedge(server, path, failed, false)
		if !race.delivered {
			if race.primaryFailed {
				// Both legs failed: fall back to the ordinary retry path.
				c.met.Failovers++
				c.processRequest(&race.flight)
			}
			return
		}
		c.gray.hedgeCancels++
		return
	}
	// The backup won the race: deliver, observe, continue the session.
	// The primary's booking is released by its own completion event.
	c.core.FinishHedge(server, path, false, true)
	c.observeServe(server, race.issued, c.eng.Now())
	race.delivered = true
	c.deliver(&race.flight, server)
}

// deliver records one response reaching the client from server and
// advances the session — shared by the primary completion path and a
// winning hedge.
func (c *Cluster) deliver(f *flight, server int) {
	s, r, end := f.s, f.r, c.eng.Now()
	b := c.backends[server]
	b.served++
	c.met.Completed++
	c.met.BytesServed += r.Size
	c.met.Response.Observe(end - f.issued)
	if end > c.lastDone {
		c.lastDone = end
	}
	c.remaining--

	if !trace.IsEmbeddedPath(r.Path) {
		// PRORD's proactive pass (bundle, navigation, category prefetch):
		// the core plans and marks placements, the simulator models one
		// batched disk read per trigger ([7]'s premise: bundles are
		// stored together, so the objects come off in one near-sequential
		// read).
		if plan, ok := c.core.PlanProactive(s.key, server, r.Path, c.vnow()); ok {
			c.prefetchBatch(plan.Server, plan.Bundle)
			c.prefetchBatch(plan.Server, plan.Nav)
			c.prefetchBatch(plan.Server, plan.Group)
		}
	}
	c.scheduleNext(s)
}
