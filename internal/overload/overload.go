// Package overload classifies cluster load into degrade-ladder tiers
// and bounds admitted work under the highest tier. It is the second
// half of the fault-tolerance story: internal/health handles dead
// backends, this package handles live-but-drowning ones.
//
// The paper only evaluates PRORD below saturation; its proactive
// machinery (prefetch hints, replication refresh) spends spare capacity
// that does not exist under overload. The degrade ladder sheds that
// speculative work first and user traffic last:
//
//	Normal     full PRORD (prefetch, replication, bundle bypass)
//	Elevated   prefetch hints and replication refresh are shed
//	Saturated  routing degrades to locality-only LARD; the bundle-aware
//	           dispatcher bypass stops
//	Critical   admission control: bounded in-flight plus a small bounded
//	           accept queue; the rest is refused fast (503 + Retry-After),
//	           never for in-progress sessions' embedded-object requests
//
// Like health.Breaker, the estimator is a pure state machine: every
// transition takes the current time as an argument, so the live
// front-end drives it with the wall clock while the simulator and tests
// drive it with a virtual one. The repo's nowallclock analyzer enforces
// the split. Neither type is goroutine-safe; the owner serializes
// access (the front-end holds its routing mutex).
package overload

import (
	"fmt"
	"time"
)

// Tier is a rung of the degrade ladder. Higher tiers shed more work;
// the ordering is significant (comparisons like tier >= Saturated gate
// behavior).
type Tier int

const (
	// Normal runs the full PRORD feature set.
	Normal Tier = iota
	// Elevated sheds speculative work: prefetch hints and replication
	// refresh.
	Elevated
	// Saturated additionally degrades routing to locality-only LARD and
	// stops the bundle-aware dispatcher bypass.
	Saturated
	// Critical additionally applies admission control to demand traffic.
	Critical
)

// String returns the tier's lower-case name.
func (t Tier) String() string {
	switch t {
	case Normal:
		return "normal"
	case Elevated:
		return "elevated"
	case Saturated:
		return "saturated"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Config tunes the estimator and the admission gate. The zero value of
// each field selects the documented default.
type Config struct {
	// CapacityPerBackend is how many concurrent in-flight demand
	// requests one backend is assumed to absorb before saturating; the
	// cluster capacity is CapacityPerBackend times the backend count,
	// and the in-flight pressure signal reads 1.0 at that point.
	// Default 64.
	CapacityPerBackend int
	// TargetLatency is the front-end service time at which the latency
	// pressure signal reads 1.0. Default 250ms.
	TargetLatency time.Duration
	// LatencyAlpha is the EWMA smoothing factor for the latency signal,
	// in (0,1]. Default 0.2.
	LatencyAlpha float64
	// ElevatedAt, SaturatedAt and CriticalAt are the pressure thresholds
	// at which the ladder steps up. They must be positive and strictly
	// increasing. Defaults 0.5, 0.75, 1.0.
	ElevatedAt  float64
	SaturatedAt float64
	CriticalAt  float64
	// DownMargin is the hysteresis band: stepping down a tier requires
	// pressure below the entering threshold times (1 - DownMargin), in
	// [0,1). Default 0.1.
	DownMargin float64
	// MinHold is the minimum time spent in a tier before a step down;
	// steps up are immediate. Default 1s.
	MinHold time.Duration
	// QueueLimit bounds the Critical-tier accept queue: requests beyond
	// the in-flight capacity wait there for a freed slot; past it they
	// are shed. 0 selects the default of 16; negative disables the
	// queue entirely.
	QueueLimit int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed (used by the live front-end; the simulator
	// models the queue as in-flight headroom). Default 500ms.
	QueueTimeout time.Duration
	// RetryAfter is the Retry-After value (whole seconds) advertised on
	// shed responses. Default 1.
	RetryAfter int
}

// WithDefaults fills unset fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.CapacityPerBackend <= 0 {
		c.CapacityPerBackend = 64
	}
	if c.TargetLatency <= 0 {
		c.TargetLatency = 250 * time.Millisecond
	}
	if c.LatencyAlpha <= 0 {
		c.LatencyAlpha = 0.2
	}
	if c.ElevatedAt <= 0 {
		c.ElevatedAt = 0.5
	}
	if c.SaturatedAt <= 0 {
		c.SaturatedAt = 0.75
	}
	if c.CriticalAt <= 0 {
		c.CriticalAt = 1.0
	}
	if c.DownMargin <= 0 {
		c.DownMargin = 0.1
	}
	if c.MinHold <= 0 {
		c.MinHold = time.Second
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 16
	} else if c.QueueLimit < 0 {
		c.QueueLimit = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 500 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	return c
}

// Validate checks the configuration after defaults are applied.
func (c Config) Validate() error {
	if c.LatencyAlpha > 1 {
		return fmt.Errorf("overload: latency alpha must be in (0,1], got %v", c.LatencyAlpha)
	}
	if !(c.ElevatedAt < c.SaturatedAt && c.SaturatedAt < c.CriticalAt) {
		return fmt.Errorf("overload: tier thresholds must increase, got %v/%v/%v",
			c.ElevatedAt, c.SaturatedAt, c.CriticalAt)
	}
	if c.DownMargin >= 1 {
		return fmt.Errorf("overload: down margin must be below 1, got %v", c.DownMargin)
	}
	return nil
}

// MarshalJSON encodes the tier by name, so JSON consumers (the cluster
// stats endpoint) see "saturated" rather than a bare ladder index.
func (t Tier) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// Transition records one ladder move, as an offset from the first
// request the estimator saw.
type Transition struct {
	At   time.Duration `json:"at"`
	From Tier          `json:"from"`
	To   Tier          `json:"to"`
}

// Estimator classifies cluster load into tiers from two signals:
// demand requests in flight versus the configured capacity, and an EWMA
// of front-end service latency versus the target. Pressure is the
// maximum of the two, so either a full pipeline or slow responses can
// escalate the ladder. Not goroutine-safe; the owner serializes access.
type Estimator struct {
	cfg      Config
	capacity int

	inflight int
	ewma     time.Duration
	hasEWMA  bool

	tier    Tier
	started bool
	start   time.Time
	since   time.Time

	transitions []Transition
}

// NewEstimator builds an estimator for a cluster of the given backend
// count, applying config defaults.
func NewEstimator(cfg Config, backends int) *Estimator {
	cfg = cfg.WithDefaults()
	if backends < 1 {
		backends = 1
	}
	return &Estimator{cfg: cfg, capacity: cfg.CapacityPerBackend * backends}
}

// Begin records one demand request entering the cluster and re-tiers.
// The first call anchors the transition log's time origin.
func (e *Estimator) Begin(now time.Time) {
	if !e.started {
		e.started = true
		e.start = now
		e.since = now
	}
	e.inflight++
	e.retier(now)
}

// End records one demand request leaving the cluster with the observed
// front-end service latency, updates the EWMA and re-tiers.
func (e *Estimator) End(now time.Time, latency time.Duration) {
	if !e.started {
		e.started = true
		e.start = now
		e.since = now
	}
	if e.inflight > 0 {
		e.inflight--
	}
	if latency > 0 {
		if !e.hasEWMA {
			e.ewma = latency
			e.hasEWMA = true
		} else {
			a := e.cfg.LatencyAlpha
			e.ewma = time.Duration(a*float64(latency) + (1-a)*float64(e.ewma))
		}
	}
	e.retier(now)
}

// Tier returns the current ladder position.
func (e *Estimator) Tier() Tier { return e.tier }

// InFlight returns the current demand requests in flight.
func (e *Estimator) InFlight() int { return e.inflight }

// Capacity returns the cluster-wide in-flight capacity.
func (e *Estimator) Capacity() int { return e.capacity }

// Pressure returns the current load estimate: the maximum of the
// in-flight and latency signals, each normalized so 1.0 means "at
// capacity".
func (e *Estimator) Pressure() float64 {
	p := float64(e.inflight) / float64(e.capacity)
	if e.hasEWMA && e.cfg.TargetLatency > 0 {
		if l := float64(e.ewma) / float64(e.cfg.TargetLatency); l > p {
			p = l
		}
	}
	return p
}

// Transitions returns a copy of the ladder moves so far, in order.
func (e *Estimator) Transitions() []Transition {
	return append([]Transition(nil), e.transitions...)
}

// retier moves the ladder. Steps up are immediate (possibly skipping
// tiers); steps down go one tier at a time and require both the
// hysteresis margin below the entering threshold and MinHold elapsed,
// so the ladder cannot flap on a noisy signal.
func (e *Estimator) retier(now time.Time) {
	p := e.Pressure()
	want := e.tierFor(p)
	switch {
	case want > e.tier:
		e.setTier(want, now)
	case want < e.tier:
		if now.Sub(e.since) >= e.cfg.MinHold && p < e.upThreshold(e.tier)*(1-e.cfg.DownMargin) {
			e.setTier(e.tier-1, now)
		}
	}
}

// tierFor maps a pressure reading to the tier it calls for.
func (e *Estimator) tierFor(p float64) Tier {
	switch {
	case p >= e.cfg.CriticalAt:
		return Critical
	case p >= e.cfg.SaturatedAt:
		return Saturated
	case p >= e.cfg.ElevatedAt:
		return Elevated
	}
	return Normal
}

// upThreshold returns the pressure that steps the ladder up into t.
func (e *Estimator) upThreshold(t Tier) float64 {
	switch t {
	case Critical:
		return e.cfg.CriticalAt
	case Saturated:
		return e.cfg.SaturatedAt
	default:
		return e.cfg.ElevatedAt
	}
}

func (e *Estimator) setTier(t Tier, now time.Time) {
	e.transitions = append(e.transitions, Transition{At: now.Sub(e.start), From: e.tier, To: t})
	e.tier = t
	e.since = now
}
