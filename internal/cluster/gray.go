package cluster

import (
	"time"

	"prord/internal/randutil"
	"prord/internal/trace"
)

// FailureMode selects the injected failure kind. The zero value is the
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

// grayState is the cluster's runtime state for injected gray failures;
// the defence against them (detector and hedging) is the core's.
type grayState struct {
	slowX    []float64          // per backend: active service-time multiplier (0 = none)
	errRate  []float64          // per backend: active demand error probability
	errRng   []*randutil.Source // per backend: seeded streams for errrate rolls
	softDown []bool             // per backend: flap outage (cache survives)
}

func newGrayState(backends int) *grayState {
	return &grayState{
		slowX:    make([]float64, backends),
		errRate:  make([]float64, backends),
		errRng:   make([]*randutil.Source, backends),
		softDown: make([]bool, backends),
	}
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

// maybeHedge arms a hedged backup for a routed request: after the
// core's hedge delay, unless the primary has delivered, the core picks
// and books the backup and the cluster carries it. It returns the
// flight the primary continues on: the race's copy when one was armed,
// else f with no race (hedging off, or the request not hedgeable).
func (c *Cluster) maybeHedge(f *flight) *flight {
	f.race = nil
	if f.r.Dynamic {
		return f // generated content is not idempotent
	}
	delay := c.core.HedgeDelay(f.r.Path)
	if delay <= 0 {
		return f
	}
	race := &hedgeRace{flight: *f}
	race.race = race
	c.eng.After(delay, func() {
		if race.delivered || c.remaining <= 0 {
			return
		}
		target, ok := c.core.Hedge(race.r.Path, race.server, c.vnow())
		if !ok {
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
		if !race.delivered && race.primaryFailed {
			// Both legs failed: the request fails over from its primary.
			c.failover(&race.flight)
		}
		return
	}
	// The backup won the race: deliver, observe, continue the session.
	// A still-running primary releases its booking when it completes; a
	// failed one was held for the race and is settled here.
	c.core.FinishHedge(server, path, false, true)
	c.core.ObserveLatency(server, c.eng.Now()-race.issued, c.vnow())
	race.delivered = true
	if race.primaryFailed {
		c.core.FinishRequest(c.vnow(), c.eng.Now()-race.issued)
		c.core.Done(race.s.key, race.server, path, true, false)
	}
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
		// PRORD's proactive pass (bundle and navigation prefetch):
		// the core plans and marks placements, the simulator models one
		// batched disk read per trigger ([7]'s premise: bundles are
		// stored together, so the objects come off in one near-sequential
		// read).
		if plan := &c.plan; c.core.PlanInto(plan, s.key, server, r.Path, c.vnow()) {
			c.prefetchBatch(plan.Server, plan.Bundle)
			c.prefetchBatch(plan.Server, plan.Nav)
		}
	}
	c.scheduleNext(s)
}
