// Package health implements per-backend failure detection for the live
// front-end: consecutive-failure tracking and a circuit breaker with
// exponential backoff and half-open trial requests.
//
// The breaker is a pure state machine: every transition takes the
// current time as an argument, so production code drives it with the
// wall clock while tests drive it with a synthetic one. The repo's
// nowallclock analyzer enforces the split — only the prober (prober.go)
// may touch real timers, because waiting between probes is the one job
// that genuinely needs them.
package health

import "time"

// State is a circuit breaker's position.
type State int

const (
	// Closed means healthy: all traffic is allowed.
	Closed State = iota
	// Open means tripped: no traffic until the backoff expires.
	Open
	// HalfOpen means one trial request is probing recovery.
	HalfOpen
)

// String returns the conventional lower-case breaker state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Config tunes a Breaker. The zero value selects the defaults.
type Config struct {
	// Threshold is how many consecutive failures trip the breaker.
	// Default 3.
	Threshold int
	// Backoff is the first open interval; every failed trial doubles
	// it. Default 500ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Default 30s.
	MaxBackoff time.Duration
}

// WithDefaults fills unset fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 500 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	return c
}

// Breaker is a circuit breaker for one backend. It is not goroutine-safe;
// the owner serializes access (the front-end holds its routing mutex).
type Breaker struct {
	cfg         Config
	state       State
	consecutive int
	backoff     time.Duration
	openUntil   time.Time

	successes int64
	failures  int64
	trips     int64
}

// Snapshot is a breaker's observable state for stats endpoints.
type Snapshot struct {
	State               State
	ConsecutiveFailures int
	Successes           int64
	Failures            int64
	Trips               int64
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg Config) *Breaker {
	cfg = cfg.WithDefaults()
	return &Breaker{cfg: cfg, backoff: cfg.Backoff}
}

// State returns the breaker's current position. An Open breaker whose
// backoff has expired still reports Open until Begin claims the trial.
func (b *Breaker) State() State { return b.state }

// Snapshot returns the breaker's counters and state.
func (b *Breaker) Snapshot() Snapshot {
	return Snapshot{
		State:               b.state,
		ConsecutiveFailures: b.consecutive,
		Successes:           b.successes,
		Failures:            b.failures,
		Trips:               b.trips,
	}
}

// Ready reports whether the backend may receive a request at time now:
// true when closed, or when open with the backoff expired (the caller
// should then Begin the half-open trial). False during a trial — only
// the single trial request probes a recovering backend.
func (b *Breaker) Ready(now time.Time) bool {
	switch b.state {
	case Closed:
		return true
	case Open:
		return !now.Before(b.openUntil)
	}
	return false
}

// Begin claims the half-open trial: an open breaker whose backoff has
// expired moves to HalfOpen. Any other state is left alone, so callers
// can invoke it unconditionally after choosing a backend.
func (b *Breaker) Begin(now time.Time) {
	if b.state == Open && !now.Before(b.openUntil) {
		b.state = HalfOpen
	}
}

// OnSuccess records a successful request or probe. It closes the breaker
// from any state and resets the failure streak and backoff.
func (b *Breaker) OnSuccess(now time.Time) {
	b.successes++
	b.consecutive = 0
	b.state = Closed
	b.backoff = b.cfg.Backoff
}

// OnAbandon records a request that ended with no verdict on the backend
// (the client hung up): counters and failure streak are untouched. An
// abandoned half-open trial hands the claim back — the breaker re-opens
// for another backoff interval, not doubled, instead of staying
// HalfOpen with no trial in flight.
func (b *Breaker) OnAbandon(now time.Time) {
	if b.state == HalfOpen {
		b.state = Open
		b.openUntil = now.Add(b.backoff)
	}
}

// OnFailure records a failed request or probe and reports whether this
// failure tripped the breaker (Closed reaching the threshold, or a
// failed half-open trial re-opening it). Failures while already open
// only update the counters.
func (b *Breaker) OnFailure(now time.Time) (tripped bool) {
	b.failures++
	b.consecutive++
	switch b.state {
	case Closed:
		if b.consecutive < b.cfg.Threshold {
			return false
		}
	case Open:
		return false
	case HalfOpen:
		// The trial failed: re-open and double the backoff.
		b.backoff *= 2
		if b.backoff > b.cfg.MaxBackoff {
			b.backoff = b.cfg.MaxBackoff
		}
	}
	b.state = Open
	b.openUntil = now.Add(b.backoff)
	b.trips++
	return true
}
