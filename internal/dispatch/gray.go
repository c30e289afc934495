package dispatch

import (
	"time"

	"prord/internal/health"
	"prord/internal/overload"
	"prord/internal/trace"
)

// GrayConfig enables the gray-failure layer: a relative latency-outlier
// detector whose ejections are the core's Degraded mask (soft exclusion
// from new placements plus progressive session rebinding), and hedged
// backup requests for static content. Both adapters run it through the
// core: they feed it latencies on their own clock and carry the hedge
// leg; what to hedge, where, and when to stand down is decided here.
type GrayConfig struct {
	// Detector tunes the latency outlier detector; zero fields take
	// health.DetectorConfig defaults.
	Detector health.DetectorConfig
	// Hedge enables hedged backup requests: when a static request is
	// still unanswered after the detector's pooled-p95 hedge delay, one
	// backup goes to the best non-degraded holder and the first good
	// response wins. Hedging stands down at Saturated tier and above —
	// duplicating work under overload makes the overload worse.
	Hedge bool
	// HedgeCap bounds outstanding hedges per backend; 0 defaults to 2,
	// and New rejects a negative cap.
	HedgeCap int
}

// WithDefaults fills zero fields.
func (g GrayConfig) WithDefaults() GrayConfig {
	g.Detector = g.Detector.WithDefaults()
	if g.HedgeCap == 0 {
		g.HedgeCap = 2
	}
	return g
}

// GrayStats summarizes the gray-failure layer: the simulator's
// Result.Gray and the live cluster stats endpoint's "gray".
type GrayStats struct {
	// Ejections and Recoveries count detector state transitions.
	Ejections  int64 `json:"ejections"`
	Recoveries int64 `json:"recoveries"`
	// GrayRebinds counts sessions moved off a degraded backend by the
	// progressive rebinding path.
	GrayRebinds int64 `json:"gray_rebinds"`
	// HedgesFired counts backups booked; each finished one is a win
	// (it delivered the response) or a cancel (the primary answered
	// first, or the backup failed).
	HedgesFired  int64 `json:"hedges_fired"`
	HedgeWins    int64 `json:"hedge_wins"`
	HedgeCancels int64 `json:"hedge_cancels"`
	// Backends is the detector's per-backend view.
	Backends []health.BackendLatency `json:"backends"`
}

// Gray returns the gray-failure layer's counters, or nil when the layer
// is off.
func (c *Core) Gray() *GrayStats {
	if c.detector == nil {
		return nil
	}
	return &GrayStats{
		Ejections:    c.detector.Ejections(),
		Recoveries:   c.detector.Recoveries(),
		GrayRebinds:  c.stats.grayRebinds.Load(),
		HedgesFired:  c.stats.hedgesFired.Load(),
		HedgeWins:    c.stats.hedgeWins.Load(),
		HedgeCancels: c.stats.hedgeCancels.Load(),
		Backends:     c.detector.Snapshot(),
	}
}

// ObserveLatency feeds the detector one attempt's latency at a backend.
// No-op with the gray layer off.
func (c *Core) ObserveLatency(server int, latency time.Duration, now time.Time) {
	if c.detector != nil {
		c.detector.Observe(server, latency, now)
	}
}

// TickGray advances the detector's dwell and probation clocks without a
// sample, so ejected backends readmit on schedule while traffic is
// sparse. No-op with the gray layer off.
func (c *Core) TickGray(now time.Time) {
	if c.detector != nil {
		c.detector.Tick(now)
	}
}

// TickInterval is how often an adapter on a real clock should call
// TickGray: the detector's evaluation interval, or 0 with the gray
// layer off.
func (c *Core) TickInterval() time.Duration {
	if c.detector == nil {
		return 0
	}
	return c.gray.Detector.EvalInterval
}

// HedgeDelay returns how long a request for path may stay unanswered
// before a backup is worth firing: the detector's pooled-p95 latency.
// It is 0 — arm no hedge — with hedging off, for generated content
// (not idempotent to duplicate) and until the detector has samples.
func (c *Core) HedgeDelay(path string) time.Duration {
	if c.detector == nil || !c.gray.Hedge || trace.IsDynamicPath(path) {
		return 0
	}
	return c.detector.HedgeDelay()
}

// Hedge fires the hedge armed for path when its delay expires: unless
// the ladder is at Saturated or above, it picks the best accepting,
// non-degraded backend other than the primary (HedgeTarget) and books
// the backup there under HedgeCap (TryBeginHedge). ok is false when no
// hedge goes out; every true return must be paired with exactly one
// FinishHedge.
func (c *Core) Hedge(path string, primary int, now time.Time) (server int, ok bool) {
	if c.Tier() >= overload.Saturated {
		return -1, false
	}
	target, ok := c.HedgeTarget(path, primary, now)
	if !ok || !c.TryBeginHedge(target, path, c.gray.HedgeCap) {
		return -1, false
	}
	return target, true
}

// pickTarget picks the best alternative backend for path, excluding
// backend exclude: least-loaded among accepting backends the locality
// state says hold the file (replication and prefetch make a holder
// likely), then least-loaded accepting, then — unless acceptOnly —
// least-loaded merely-available (degraded; a hard failover must land
// somewhere, so with nothing else up it may also wake a backend, as
// Route does). Shared by Rebook's failover retry and HedgeTarget so both
// prefer a warm replica over a cold least-loaded backend.
func (c *Core) pickTarget(path string, exclude int, acceptOnly bool, now time.Time) (int, bool) {
	avail := c.availMask(now).Remove(exclude)
	if !acceptOnly {
		avail = c.wakeIfEmpty(avail, now).Remove(exclude)
	}
	f := c.fileShardFor(path)
	f.mu.Lock()
	holders := f.believed(c.cfg.Exact, path, avail) | f.peek(path).prefetched&avail
	f.mu.Unlock()
	accept := c.healthy(avail)
	if s, ok := c.leastLoaded(holders & accept); ok {
		return s, true
	}
	if s, ok := c.leastLoaded(accept); ok || acceptOnly {
		return s, ok
	}
	return c.leastLoaded(avail)
}

// HedgeTarget picks the backend for a hedged backup request on path:
// the best accepting, non-degraded backend other than the primary,
// preferring one that already holds the file. ok is false (and the
// backend -1) when no backend is worth hedging to. The choice books
// nothing; Hedge pairs it with TryBeginHedge.
func (c *Core) HedgeTarget(path string, primary int, now time.Time) (int, bool) {
	return c.pickTarget(path, primary, true, now)
}

// TryBeginHedge books a hedged backup attempt for path on server,
// respecting limit outstanding hedges per backend; limit must be
// positive. The booking mirrors a Route booking's load and in-flight
// state but binds no session and emits no decision record, so hedging
// never perturbs the decision stream differential tests compare. A
// false return means the backend is at its hedge cap and nothing was
// booked. Every true return must be paired with exactly one
// FinishHedge.
func (c *Core) TryBeginHedge(server int, path string, limit int) bool {
	if server < 0 || server >= c.cfg.Backends {
		return false
	}
	if n := c.hedges[server].Add(1); n > int64(limit) {
		c.hedges[server].Add(-1)
		return false
	}
	c.stats.hedgesFired.Add(1)
	c.book(server, path)
	return true
}

// FinishHedge releases a hedged attempt's booking. failed marks a
// backend error or cancellation before headers — the optimistic
// locality claim drops, as in Done. won marks that the hedge delivered
// the response; it counts toward the hedge wins, and any other finish
// toward the cancels.
func (c *Core) FinishHedge(server int, path string, failed, won bool) {
	if server < 0 || server >= c.cfg.Backends {
		return
	}
	c.hedges[server].Add(-1)
	c.release(server, path, failed)
	if won {
		c.stats.hedgeWins.Add(1)
	} else {
		c.stats.hedgeCancels.Add(1)
	}
}

// HedgeLoad returns a backend's outstanding hedged attempts (tests and
// stats endpoints).
func (c *Core) HedgeLoad(server int) int {
	if server < 0 || server >= len(c.hedges) {
		return 0
	}
	return int(c.hedges[server].Load())
}
