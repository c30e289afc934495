package health

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DetectorConfig tunes the gray-failure Detector. The zero value
// selects the defaults.
type DetectorConfig struct {
	// Window is the per-backend latency sample ring size. Default 64.
	Window int
	// MinSamples is how many samples a backend needs in its window
	// before it participates in outlier evaluation. Default 16.
	MinSamples int
	// Multiplier is the relative outlier threshold k: a backend is over
	// threshold while its p90 (and EWMA) exceed k x the pool median of
	// the same statistic. Default 3.
	Multiplier float64
	// Hold is how long a backend must stay over threshold before it is
	// ejected (enters Degraded). Default 2s.
	Hold time.Duration
	// Eject is the base ejection dwell: how long a first ejection keeps
	// the backend Degraded before the probation readmission. Every
	// re-ejection during probation doubles the dwell. Default 5s.
	Eject time.Duration
	// MaxEject caps the exponential dwell growth. Default 60s.
	MaxEject time.Duration
	// RecoverHold is the probation length: a readmitted backend that
	// stays converged this long is confirmed recovered and its dwell
	// backoff resets. Default 10s.
	RecoverHold time.Duration
	// EvalInterval throttles outlier evaluation: the detector re-ranks
	// the pool at most once per interval regardless of sample arrival
	// rate. Default 100ms.
	EvalInterval time.Duration
	// HedgeQuantile is the pooled healthy-latency quantile HedgeDelay
	// reports. Default 0.95.
	HedgeQuantile float64
	// EWMAAlpha is the per-backend latency EWMA smoothing factor.
	// Default 0.2.
	EWMAAlpha float64
}

// WithDefaults fills unset fields with the package defaults.
func (c DetectorConfig) WithDefaults() DetectorConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.Multiplier <= 1 {
		c.Multiplier = 3
	}
	if c.Hold <= 0 {
		c.Hold = 2 * time.Second
	}
	if c.Eject <= 0 {
		c.Eject = 5 * time.Second
	}
	if c.MaxEject <= 0 {
		c.MaxEject = 60 * time.Second
	}
	if c.RecoverHold <= 0 {
		c.RecoverHold = 10 * time.Second
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 100 * time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.2
	}
	return c
}

// phase is one backend's position in the gray-failure state machine.
type phase int

const (
	// healthy: normal service, over-threshold time being tracked.
	healthy phase = iota
	// degraded: ejected; soft-excluded from new bindings until the
	// dwell expires.
	degraded
	// probation: readmitted on a fresh window; a re-ejection before
	// RecoverHold elapses doubles the dwell, surviving it confirms
	// recovery.
	probation
)

// lat tracks one backend's latency statistics and detector state.
type lat struct {
	ring    []time.Duration // fixed-size sample ring
	n       int             // samples in ring (<= len(ring))
	next    int             // ring write cursor
	ewma    float64         // smoothed latency, ns
	haveEwm bool

	phase     phase
	overSince time.Time // healthy/probation: first over-threshold instant (zero: not over)
	ejectedAt time.Time // degraded: when the ejection happened
	readmitAt time.Time // probation: when the dwell expired
	dwell     time.Duration
	ejections int64
	lastP90   time.Duration // from the most recent evaluation
}

// Detector is the pool-relative gray-failure detector: it ingests
// per-backend request latencies and ejects a backend whose p90 and EWMA
// both exceed Multiplier x the pool median of the same statistics for
// Hold. Ejection is bounded dwell + probation: after Eject (doubling on
// every re-ejection, capped at MaxEject) the backend is readmitted on a
// fresh sample window; surviving RecoverHold converged confirms
// recovery and resets the dwell backoff, so flapping backends spend
// exponentially longer ejected instead of thrashing session bindings.
//
// Like the Breaker it is a pure state machine on caller-supplied time:
// the simulator drives it with virtual time, the live front-end with
// the wall clock. Observe/Reset/Snapshot serialize on an internal leaf
// mutex; Degraded and HedgeDelay are lock-free and safe on routing hot
// paths.
type Detector struct {
	cfg DetectorConfig

	mu       sync.Mutex
	backends []lat
	lastEval time.Time
	scratch  []time.Duration // evaluation buffer, reused across calls

	mask       []atomic.Bool // lock-free Degraded() view
	degradedN  atomic.Int32
	hedgeNS    atomic.Int64 // pooled healthy HedgeQuantile latency, ns
	ejections  atomic.Int64
	recoveries atomic.Int64
}

// BackendLatency is one backend's detector view for stats endpoints.
type BackendLatency struct {
	Degraded  bool          `json:"degraded"`
	Probation bool          `json:"probation"`
	P90       time.Duration `json:"p90_ns"`
	EWMA      time.Duration `json:"ewma_ns"`
	Samples   int           `json:"samples"`
	Ejections int64         `json:"ejections"`
}

// NewDetector builds a detector for n backends.
func NewDetector(n int, cfg DetectorConfig) *Detector {
	cfg = cfg.WithDefaults()
	d := &Detector{
		cfg:      cfg,
		backends: make([]lat, n),
		mask:     make([]atomic.Bool, n),
	}
	for i := range d.backends {
		d.backends[i].ring = make([]time.Duration, cfg.Window)
		d.backends[i].dwell = cfg.Eject
	}
	return d
}

// Degraded reports whether backend server is currently ejected.
// Lock-free; safe on routing hot paths. Out-of-range servers are never
// degraded.
func (d *Detector) Degraded(server int) bool {
	if server < 0 || server >= len(d.mask) {
		return false
	}
	return d.mask[server].Load()
}

// DegradedCount returns how many backends are currently ejected.
func (d *Detector) DegradedCount() int { return int(d.degradedN.Load()) }

// HedgeDelay returns the pooled HedgeQuantile latency across
// non-degraded backends from the most recent evaluation — the delay
// after which a hedged backup request is worth firing. Zero until
// enough samples exist. Lock-free.
func (d *Detector) HedgeDelay() time.Duration {
	return time.Duration(d.hedgeNS.Load())
}

// Ejections returns the total ejection count.
func (d *Detector) Ejections() int64 { return d.ejections.Load() }

// Recoveries returns the count of confirmed recoveries (probations
// survived).
func (d *Detector) Recoveries() int64 { return d.recoveries.Load() }

// Observe records one request latency for backend server at time now
// and, at most once per EvalInterval, re-evaluates the pool.
func (d *Detector) Observe(server int, latency time.Duration, now time.Time) {
	if server < 0 || server >= len(d.mask) {
		return
	}
	if latency < 0 {
		latency = 0
	}
	d.mu.Lock()
	b := &d.backends[server]
	b.ring[b.next] = latency
	b.next = (b.next + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	if !b.haveEwm {
		b.ewma = float64(latency)
		b.haveEwm = true
	} else {
		b.ewma += d.cfg.EWMAAlpha * (float64(latency) - b.ewma)
	}
	if d.lastEval.IsZero() || !now.Before(d.lastEval.Add(d.cfg.EvalInterval)) {
		d.lastEval = now
		d.evaluate(now)
	}
	d.mu.Unlock()
}

// Tick advances dwell/probation clocks without a new sample — callers
// with sparse traffic (the simulator between completions, the live
// scale loop) use it so ejected backends still readmit on schedule.
func (d *Detector) Tick(now time.Time) {
	d.mu.Lock()
	if d.lastEval.IsZero() || !now.Before(d.lastEval.Add(d.cfg.EvalInterval)) {
		d.lastEval = now
		d.evaluate(now)
	}
	d.mu.Unlock()
}

// Reset clears backend server's window and detector state — call when
// the backend hard-crashes, leaves the pool, or rejoins, so stale
// latencies from a previous life never drive an ejection.
func (d *Detector) Reset(server int) {
	if server < 0 || server >= len(d.mask) {
		return
	}
	d.mu.Lock()
	b := &d.backends[server]
	wasDegraded := b.phase == degraded
	b.n, b.next = 0, 0
	b.ewma, b.haveEwm = 0, false
	b.phase = healthy
	b.overSince = time.Time{}
	b.ejectedAt = time.Time{}
	b.readmitAt = time.Time{}
	b.dwell = d.cfg.Eject
	b.lastP90 = 0
	if wasDegraded {
		d.mask[server].Store(false)
		d.degradedN.Add(-1)
	}
	d.mu.Unlock()
}

// Snapshot returns every backend's detector view.
func (d *Detector) Snapshot() []BackendLatency {
	d.mu.Lock()
	out := make([]BackendLatency, len(d.backends))
	for i := range d.backends {
		b := &d.backends[i]
		out[i] = BackendLatency{
			Degraded:  b.phase == degraded,
			Probation: b.phase == probation,
			P90:       b.lastP90,
			EWMA:      time.Duration(b.ewma),
			Samples:   b.n,
			Ejections: b.ejections,
		}
	}
	d.mu.Unlock()
	return out
}

// evaluate re-ranks the pool and advances every backend's state
// machine. Called under mu.
func (d *Detector) evaluate(now time.Time) {
	// Per-backend p90s, then pool medians over backends with enough
	// samples. Degraded backends keep contributing their (inflated)
	// statistics; the median is robust to a minority of outliers and a
	// backend can never clear its own 3x bar, so self-exclusion is
	// unnecessary.
	p90s := make([]time.Duration, len(d.backends))
	var ranked []time.Duration
	var ewmas []float64
	for i := range d.backends {
		b := &d.backends[i]
		if b.n < d.cfg.MinSamples {
			b.lastP90 = 0
			continue
		}
		p90s[i] = d.quantile(b, 0.90)
		b.lastP90 = p90s[i]
		ranked = append(ranked, p90s[i])
		ewmas = append(ewmas, b.ewma)
	}
	d.publishHedgeDelay()
	if len(ranked) < 2 {
		// With fewer than two ranked backends there is no pool to be an
		// outlier of; still advance dwell clocks below.
		d.advanceDwells(now)
		return
	}
	medP90 := medianDur(ranked)
	medEwm := medianF(ewmas)
	// Structural cap: the median bounds outliers to a minority, but
	// staggered ejections across window resets could creep past it.
	maxDegraded := (len(d.backends) - 1) / 2

	for i := range d.backends {
		b := &d.backends[i]
		switch b.phase {
		case healthy, probation:
			if b.n < d.cfg.MinSamples || medP90 <= 0 {
				b.overSince = time.Time{}
				continue
			}
			over := float64(p90s[i]) > d.cfg.Multiplier*float64(medP90) &&
				b.ewma > d.cfg.Multiplier*medEwm
			if !over {
				b.overSince = time.Time{}
				if b.phase == probation && !now.Before(b.readmitAt.Add(d.cfg.RecoverHold)) {
					// Survived probation converged: confirmed recovery.
					b.phase = healthy
					b.dwell = d.cfg.Eject
					d.recoveries.Add(1)
				}
				continue
			}
			if b.overSince.IsZero() {
				b.overSince = now
				continue
			}
			if now.Sub(b.overSince) < d.cfg.Hold {
				continue
			}
			if int(d.degradedN.Load()) >= maxDegraded {
				continue // never eject a majority of the pool
			}
			if b.phase == probation {
				// Re-ejection during probation: flapping — double the dwell.
				b.dwell *= 2
				if b.dwell > d.cfg.MaxEject {
					b.dwell = d.cfg.MaxEject
				}
			}
			b.phase = degraded
			b.ejectedAt = now
			b.overSince = time.Time{}
			b.ejections++
			d.ejections.Add(1)
			d.mask[i].Store(true)
			d.degradedN.Add(1)
		}
	}
	d.advanceDwells(now)
}

// advanceDwells readmits ejected backends whose dwell expired. Called
// under mu.
func (d *Detector) advanceDwells(now time.Time) {
	for i := range d.backends {
		b := &d.backends[i]
		if b.phase != degraded || now.Before(b.ejectedAt.Add(b.dwell)) {
			continue
		}
		// Probation readmission on a fresh window: the backend needs
		// MinSamples new samples before it can re-trip, a fair trial.
		b.phase = probation
		b.readmitAt = now
		b.overSince = time.Time{}
		b.n, b.next = 0, 0
		b.ewma, b.haveEwm = 0, false
		d.mask[i].Store(false)
		d.degradedN.Add(-1)
	}
}

// publishHedgeDelay pools non-degraded backends' windows and caches the
// HedgeQuantile latency for lock-free HedgeDelay reads. Called under mu.
func (d *Detector) publishHedgeDelay() {
	d.scratch = d.scratch[:0]
	for i := range d.backends {
		b := &d.backends[i]
		if b.phase == degraded || b.n == 0 {
			continue
		}
		d.scratch = append(d.scratch, b.ring[:b.n]...)
	}
	if len(d.scratch) < d.cfg.MinSamples {
		d.hedgeNS.Store(0)
		return
	}
	sort.Slice(d.scratch, func(a, b int) bool { return d.scratch[a] < d.scratch[b] })
	idx := int(d.cfg.HedgeQuantile * float64(len(d.scratch)-1))
	d.hedgeNS.Store(int64(d.scratch[idx]))
}

// quantile computes one backend's window quantile. Called under mu;
// reuses the shared scratch buffer.
func (d *Detector) quantile(b *lat, q float64) time.Duration {
	d.scratch = append(d.scratch[:0], b.ring[:b.n]...)
	sort.Slice(d.scratch, func(a, b int) bool { return d.scratch[a] < d.scratch[b] })
	idx := int(q * float64(len(d.scratch)-1))
	return d.scratch[idx]
}

// medianDur returns the median of a duration slice (sorted in place).
func medianDur(v []time.Duration) time.Duration {
	sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// medianF returns the median of a float slice (sorted in place).
func medianF(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
