package httpfront

import (
	"context"
	"net/http"
	"time"

	"prord/internal/health"
	"prord/internal/overload"
	"prord/internal/trace"
)

// GrayConfig enables the gray-failure resilience layer on the live
// front-end: a relative latency-outlier detector that soft-excludes
// degraded backends (ejection plus progressive session rebinding),
// hedged backup requests for idempotent static content, and
// tier-derived per-request deadline budgets. The detection and hedging
// machinery is the same code the simulator runs (cluster.GrayConfig);
// this layer adds the live substrate: wall-clock ticking, cancelable
// round trips and the first-good-head race.
type GrayConfig struct {
	// Detector tunes the relative latency-outlier detector; zero fields
	// take the health package defaults.
	Detector health.DetectorConfig
	// Hedge enables hedged backup requests: when an idempotent (GET or
	// HEAD) static request is still unanswered after the detector's
	// pooled-p95 hedge delay, one backup goes to the best non-degraded
	// backend holding the file and the first committed response wins;
	// the loser's transfer is canceled. Hedging stands down at
	// Saturated tier and above — duplicating work under overload makes
	// the overload worse.
	Hedge bool
	// HedgeCap bounds outstanding hedged requests per backend; 0
	// defaults to 2, and New rejects a negative cap.
	HedgeCap int
	// Deadline is the per-request deadline budget at Normal and
	// Elevated tiers; it halves at Saturated and quarters at Critical,
	// spending less of the cluster on any one request exactly when
	// capacity is scarce. One budget covers the whole request — every
	// failover attempt and any hedged backup. 0 disables deadlines.
	Deadline time.Duration
}

// withDefaults fills zero fields.
func (g GrayConfig) withDefaults() GrayConfig {
	g.Detector = g.Detector.WithDefaults()
	if g.HedgeCap == 0 {
		g.HedgeCap = 2
	}
	return g
}

// GrayStats are the resilience layer's live counters, mirroring the
// simulator's GrayResult for the cluster stats endpoint.
type GrayStats struct {
	Ejections    int64 `json:"ejections"`
	Recoveries   int64 `json:"recoveries"`
	GrayRebinds  int64 `json:"gray_rebinds"`
	HedgesFired  int64 `json:"hedges_fired"`
	HedgeWins    int64 `json:"hedge_wins"`
	HedgeCancels int64 `json:"hedge_cancels"`
	// Degraded lists the currently ejected backends.
	Degraded []int `json:"degraded,omitempty"`
}

// Gray returns the resilience layer's counters, or nil when the layer
// is disabled.
func (d *Distributor) Gray() *GrayStats {
	if d.detector == nil {
		return nil
	}
	cs := d.core.Stats()
	g := &GrayStats{
		Ejections:    d.detector.Ejections(),
		Recoveries:   d.detector.Recoveries(),
		GrayRebinds:  cs.GrayRebinds,
		HedgesFired:  cs.HedgesFired,
		HedgeWins:    cs.HedgeWins,
		HedgeCancels: d.hedgeCancels.Load(),
	}
	for i, b := range d.detector.Snapshot() {
		if b.Degraded {
			g.Degraded = append(g.Degraded, i)
		}
	}
	return g
}

// observeLatency feeds the detector one completed proxied attempt.
func (d *Distributor) observeLatency(server int, lat time.Duration) {
	if d.detector != nil {
		d.detector.Observe(server, lat, time.Now())
	}
}

// grayTickLoop advances the detector's dwell and probation clocks while
// traffic is sparse, so ejected backends still readmit on schedule.
func (d *Distributor) grayTickLoop(stop <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.detector.Tick(time.Now())
		}
	}
}

// scaledDeadline derives the effective per-request budget from the
// overload tier: full at Normal and Elevated, half at Saturated, a
// quarter at Critical.
func scaledDeadline(base time.Duration, tier overload.Tier) time.Duration {
	switch {
	case base <= 0:
		return 0
	case tier >= overload.Critical:
		return base / 4
	case tier >= overload.Saturated:
		return base / 2
	}
	return base
}

// deadlineBudget returns the current request deadline budget (0 when
// deadlines are disabled).
func (d *Distributor) deadlineBudget() time.Duration {
	return scaledDeadline(d.gray.Deadline, d.core.Tier())
}

// hedgeable reports whether a path is worth arming a hedge for right
// now: the layer is on, the content is static (idempotent to duplicate)
// and the detector has published a hedge delay.
func (d *Distributor) hedgeable(path string) bool {
	if d.detector == nil || !d.gray.Hedge {
		return false
	}
	if trace.IsDynamicPath(path) {
		return false
	}
	return d.detector.HedgeDelay() > 0
}

// answer is one hedge leg's result: a response, or why there is none.
type answer struct {
	resp *response
	err  error
	// void marks a transport error on a canceled leg — the referee
	// already chose the other leg, or the client hung up — which is no
	// verdict on the backend. A deadline expiry is not void.
	void bool
}

// good reports an answer fit to deliver; failed, a genuine backend
// failure. A void answer is neither.
func (a answer) good() bool {
	return a.resp != nil && a.resp.status < http.StatusInternalServerError
}
func (a answer) failed() bool { return !a.good() && !a.void }

func (a answer) close() {
	if a.resp != nil {
		a.resp.Close()
	}
}

// postHead runs one side of a hedged pair and posts its answer on its
// own 1-buffered channel, so a leg never outlives its round trip.
func (d *Distributor) postHead(ctx context.Context, server int, r *http.Request, out chan<- answer) {
	resp, err := d.roundTrip(ctx, server, r)
	out <- answer{resp: resp, err: err, void: err != nil && ctx.Err() == context.Canceled}
}

// hedge is a fired backup leg's booking.
type hedge struct {
	target int
	start  time.Time
	// primaryFailed is set when the backup delivered: whether the primary
	// it replaced had genuinely failed, not just been canceled as slower.
	primaryFailed bool
}

// finishHedge settles a backup leg: its breaker attempt, its core
// booking and, for a delivered response, its latency sample.
func (d *Distributor) finishHedge(h *hedge, path string, failed, won bool) {
	d.endAttempt(h.target, failed)
	d.core.FinishHedge(h.target, path, failed, won)
	if won && !failed {
		d.observeLatency(h.target, time.Since(h.start))
	}
}

// hedged runs the first attempt of an idempotent request with a backup
// armed: if the primary has not answered after the detector's pooled-p95
// hedge delay, one backup goes to the best non-degraded holder of the
// file and the first good head wins (a failed head never does: the race
// stays open for the other leg). The loser's context is canceled and its
// body closed, and both legs have returned before hedged does.
//
// When the backup delivered, its response comes back with its booking
// (won) for the caller to settle with finishHedge after the body copy.
// Otherwise the primary's answer comes back, good or not, for the
// ordinary retry machinery, and a fired backup is already settled. The
// caller defers release, which cancels both legs, past the body copy.
func (d *Distributor) hedged(ctx context.Context, r *http.Request, path string, primary int) (resp *response, won *hedge, release context.CancelFunc, err error) {
	ctxP, cancelP := context.WithCancel(ctx)
	ctxB, cancelB := context.WithCancel(ctx)
	release = func() { cancelP(); cancelB() }
	primc, backc := make(chan answer, 1), make(chan answer, 1)
	go d.postHead(ctxP, primary, r, primc)
	timer := time.NewTimer(d.detector.HedgeDelay())
	defer timer.Stop()
	var prim, back answer
	select {
	case prim = <-primc:
		return prim.resp, nil, release, prim.err
	case <-timer.C:
	}
	// Mirror the simulator's stand-down checks at fire time.
	target, ok := -1, d.core.Tier() < overload.Saturated
	if ok {
		target, ok = d.core.HedgeTarget(path, primary, time.Now())
	}
	if !ok || !d.core.TryBeginHedge(target, path, d.gray.HedgeCap) {
		prim = <-primc
		return prim.resp, nil, release, prim.err
	}
	d.beginAttempt(target)
	backup := &hedge{target: target, start: time.Now()}
	go d.postHead(ctxB, target, r, backc)
	backupWon := false
	select {
	case prim = <-primc:
		if prim.good() {
			cancelB()
		}
		back = <-backc
		backupWon = !prim.good() && back.good()
	case back = <-backc:
		if back.good() {
			cancelP()
		}
		prim = <-primc
		backupWon = back.good()
	}
	// A leg's verdict is read before its close: a closed response's
	// connection may already carry another request.
	if backupWon {
		backup.primaryFailed = prim.failed()
		prim.close()
		return back.resp, backup, release, nil
	}
	backFailed := back.failed()
	back.close()
	d.finishHedge(backup, path, backFailed, false)
	if !prim.failed() {
		// The primary answered first: the backup was moot.
		d.hedgeCancels.Add(1)
	}
	return prim.resp, nil, release, prim.err
}
