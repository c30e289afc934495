package httpfront

import (
	"context"
	"net/http"
	"time"

	"prord/internal/dispatch"
	"prord/internal/overload"
)

// GrayConfig is the core's gray-failure layer configuration
// (Config.Gray), named here for callers that build a front-end.
type GrayConfig = dispatch.GrayConfig

// Gray returns the gray-failure layer's counters, or nil when the layer
// is off.
func (d *Distributor) Gray() *dispatch.GrayStats { return d.core.Gray() }

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
			d.core.TickGray(time.Now())
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
	return scaledDeadline(d.cfg.Deadline, d.core.Tier())
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
		d.core.ObserveLatency(h.target, time.Since(h.start), time.Now())
	}
}

// hedged runs the first attempt of an idempotent request with a backup
// armed: if the primary has not answered after delay, the core's Hedge
// picks and books the backup and the first good head wins (a failed
// head never does: the race stays open for the other leg). The loser's
// context is canceled and its body closed, and both legs have returned
// before hedged does.
//
// When the backup delivered, its response comes back with its booking
// (won) for the caller to settle with finishHedge after the body copy.
// Otherwise the primary's answer comes back, good or not, for the
// ordinary retry machinery, and a fired backup is already settled. The
// caller defers release, which cancels both legs, past the body copy.
func (d *Distributor) hedged(ctx context.Context, r *http.Request, path string, primary int, delay time.Duration) (resp *response, won *hedge, release context.CancelFunc, err error) {
	ctxP, cancelP := context.WithCancel(ctx)
	ctxB, cancelB := context.WithCancel(ctx)
	release = func() { cancelP(); cancelB() }
	primc, backc := make(chan answer, 1), make(chan answer, 1)
	go d.postHead(ctxP, primary, r, primc)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var prim, back answer
	select {
	case prim = <-primc:
		return prim.resp, nil, release, prim.err
	case <-timer.C:
	}
	target, ok := d.core.Hedge(path, primary, time.Now())
	if !ok {
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
	return prim.resp, nil, release, prim.err
}
