package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// BenchSchema versions the benchmark artifact prord-loadgen writes.
// Bump it whenever a field is renamed, removed or changes meaning;
// adding fields is backward-compatible and keeps the version.
//
// prord-bench/3 dropped the truncated *_us aliases of the latency
// summaries: nanoseconds are the only resolution recorded.
// prord-bench/4 dropped the run's fleet block and the sim block's
// fleet_forwards with the live distributor fleet.
// prord-bench/5 dropped the run's elastic-pool block with the pool.
// Nothing in the repository reads artifacts back.
const BenchSchema = "prord-bench/5"

// LatencySummary is a latency histogram reduced to the quantities the
// artifacts report. All durations are integer nanoseconds so the JSON
// encoding is stable across platforms and runs.
type LatencySummary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	MinNS  int64 `json:"min_ns"`
	MaxNS  int64 `json:"max_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
}

// Summary reduces the histogram to its artifact form.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNS: h.Mean().Nanoseconds(),
		MinNS:  h.Min().Nanoseconds(),
		MaxNS:  h.Max().Nanoseconds(),
		P50NS:  h.Quantile(0.5).Nanoseconds(),
		P90NS:  h.Quantile(0.9).Nanoseconds(),
		P99NS:  h.Quantile(0.99).Nanoseconds(),
		P999NS: h.Quantile(0.999).Nanoseconds(),
	}
}

// BackendSample is one backend's share of a benchmark run.
type BackendSample struct {
	// Requests counts demand requests routed to the backend.
	Requests int64 `json:"requests"`
	// Prefetches counts prefetch hints the backend received.
	Prefetches int64 `json:"prefetches"`
	// HitRate is the backend's memory hit fraction over demand requests.
	HitRate float64 `json:"hit_rate"`
	// BreakerTrips counts the front-end circuit breaker's trips for this
	// backend (0 on fault-free runs and for tools without breakers).
	BreakerTrips int64 `json:"breaker_trips"`
}

// TierTransition is one overload degrade-ladder move in artifact form:
// a millisecond offset from the first request plus the tier names. Sim
// transitions are deterministic (virtual time) and covered by the
// byte-stability guarantee; live transitions are measured wall-clock
// quantities and are not.
type TierTransition struct {
	AtMS int64  `json:"at_ms"`
	From string `json:"from"`
	To   string `json:"to"`
}

// SimComparison is the live-vs-simulated delta block of a run: the same
// trace and policy executed on the discrete-event cluster model, and the
// relative differences of the headline metrics.
type SimComparison struct {
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanUS        int64   `json:"mean_us"`
	HitRate       float64 `json:"hit_rate"`
	// ThroughputDeltaPct is 100*(live-sim)/sim for throughput.
	ThroughputDeltaPct float64 `json:"throughput_delta_pct"`
	// MeanLatencyDeltaPct is 100*(live-sim)/sim for mean latency.
	MeanLatencyDeltaPct float64 `json:"mean_latency_delta_pct"`
	// Failovers counts the simulator's crash-interrupted requests
	// retried on another backend. The simulator only fails over work
	// caught mid-service by a crash (later requests route around the
	// dead backend instantly), so this is expected to undercount the
	// live front-end's figure, which masks every failed attempt.
	Failovers int64 `json:"failovers"`
	// Shed counts simulated demand requests refused by Critical-tier
	// admission control. Both sides run the decision core's bounded
	// accept queue, but service times differ (simulated Table-1 costs vs
	// a real shared-machine scheduler), so queue occupancy — and with it
	// the shed count — still drifts. The residual is surfaced as
	// ShedDeltaPct rather than documented prose.
	Shed int64 `json:"shed,omitempty"`
	// ShedDeltaPct is 100*(live-sim)/sim for the shed counts, the
	// explicit live-vs-sim admission-control delta. 0 when the simulator
	// shed nothing.
	ShedDeltaPct float64 `json:"shed_delta_pct,omitempty"`
	// PrefetchShed counts simulated proactive passes suppressed at
	// Elevated tier or above.
	PrefetchShed int64 `json:"prefetch_shed,omitempty"`
	// ReplicationsShed counts simulated replication rounds skipped at
	// Elevated tier or above.
	ReplicationsShed int64 `json:"replications_shed,omitempty"`
	// TierTransitions is the simulator's degrade-ladder history; it is
	// deterministic and part of the byte-stability guarantee.
	TierTransitions []TierTransition `json:"tier_transitions,omitempty"`
}

// GraySummary is the gray-failure resilience block of a benchmark run:
// what the latency-outlier detector did and how the hedging layer's
// backup requests fared.
type GraySummary struct {
	// Ejections and Recoveries count detector transitions into and out
	// of the Degraded state over the run.
	Ejections  int64 `json:"ejections"`
	Recoveries int64 `json:"recoveries"`
	// GrayRebinds counts sessions moved off a degraded backend by the
	// progressive rebind path (distinct from crash-driven failovers).
	GrayRebinds int64 `json:"gray_rebinds"`
	// HedgesFired counts backup requests launched after the hedge delay;
	// HedgeWins counts backups that answered before their primary, and
	// HedgeCancels counts backups canceled because the primary won.
	HedgesFired  int64 `json:"hedges_fired"`
	HedgeWins    int64 `json:"hedge_wins"`
	HedgeCancels int64 `json:"hedge_cancels"`
}

// BenchRun is one measured cell of a benchmark artifact (one policy on
// one workload).
type BenchRun struct {
	// Name identifies the cell, conventionally the policy name.
	Name string `json:"name"`
	// Requests counts completed demand requests in the measurement
	// window (warmup excluded).
	Requests int64 `json:"requests"`
	// WarmupRequests counts completions excluded as warmup.
	WarmupRequests int64 `json:"warmup_requests,omitempty"`
	// Errors counts transport failures and 5xx responses.
	Errors int64 `json:"errors"`
	// ThroughputRPS is completed requests per second of measurement.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency summarizes client-visible response times (measurement
	// window only).
	Latency LatencySummary `json:"latency"`
	// FrontLatency summarizes the front-end's own service time per
	// request (routing + proxied backend round-trip, whole run) when the
	// producing tool observes it.
	FrontLatency *LatencySummary `json:"front_latency,omitempty"`
	// HitRate is the aggregate backend memory hit fraction.
	HitRate float64 `json:"hit_rate"`
	// DispatchPerRequest is dispatcher consultations per demand request
	// (Fig. 6's metric).
	DispatchPerRequest float64 `json:"dispatch_per_request"`
	// Handoffs counts connection handoffs at the front-end.
	Handoffs int64 `json:"handoffs"`
	// Failovers counts requests transparently re-routed to a healthy
	// backend after a failed attempt (the client saw a success).
	Failovers int64 `json:"failovers"`
	// Retries counts retry attempts the front-end issued while failing
	// over; at most one per request.
	Retries int64 `json:"retries"`
	// Prefetches counts prefetch hints issued by the front-end.
	Prefetches int64 `json:"prefetches,omitempty"`
	// GoodputRPS is successfully answered demand requests per second of
	// measurement. Only set on runs with overload control enabled, where
	// the offered load (goodput + shed) exceeds it; without shedding it
	// would duplicate ThroughputRPS.
	GoodputRPS float64 `json:"goodput_rps,omitempty"`
	// Shed counts demand requests refused with 503 by Critical-tier
	// admission control (clients saw Retry-After, not an error).
	Shed int64 `json:"shed,omitempty"`
	// PrefetchShed counts proactive prefetch passes the front-end
	// suppressed at Elevated tier or above.
	PrefetchShed int64 `json:"prefetch_shed,omitempty"`
	// PrefetchHintsDropped counts prefetch hints lost to a full hint
	// queue (distinct from PrefetchShed, which never generated the hint).
	PrefetchHintsDropped int64 `json:"prefetch_hints_dropped,omitempty"`
	// TierTransitions is the live front-end's degrade-ladder history.
	// Offsets are measured wall-clock quantities, excluded from the
	// byte-stability guarantee (the simulator's deterministic ladder is
	// under Sim).
	TierTransitions []TierTransition `json:"tier_transitions,omitempty"`
	// Gray holds the gray-failure resilience outcome when the detection
	// or hedging layer was enabled.
	Gray *GraySummary `json:"gray,omitempty"`
	// Backends holds per-backend request counts and hit rates in backend
	// order.
	Backends []BackendSample `json:"backends,omitempty"`
	// LoadSkew is max/mean of per-backend demand request counts (1.0 =
	// perfectly balanced).
	LoadSkew float64 `json:"load_skew,omitempty"`
	// Sim holds the live-vs-sim comparison when the simulator was run.
	Sim *SimComparison `json:"sim,omitempty"`
}

// BenchArtifact is the versioned machine-readable result of a benchmark
// campaign. Two runs with the same seed and configuration encode
// byte-identically except for GeneratedAt (and any genuinely measured
// wall-clock quantities the producing tool documents).
type BenchArtifact struct {
	Schema string `json:"schema"`
	// Tool names the producing command ("prord-loadgen").
	Tool string `json:"tool"`
	// GeneratedAt is the single wall-clock timestamp of the artifact
	// (RFC 3339). It is the only field two identically-seeded runs are
	// expected to differ in besides measured timings.
	GeneratedAt string `json:"generated_at,omitempty"`
	// Config echoes the producing tool's effective configuration.
	Config any `json:"config,omitempty"`
	// Workload describes the deterministic request schedule (counts,
	// digest) so artifacts from different machines can be compared.
	Workload any        `json:"workload,omitempty"`
	Runs     []BenchRun `json:"runs"`
}

// Stamp sets GeneratedAt from t in the artifact's canonical format.
func (a *BenchArtifact) Stamp(t time.Time) {
	a.GeneratedAt = t.UTC().Format(time.RFC3339)
}

// Encode writes the artifact as stable indented JSON: struct field order
// is fixed by declaration, map keys are sorted by encoding/json, and all
// durations are integers. Callers should round free-form
// floats with Round before setting them.
func (a *BenchArtifact) Encode(w io.Writer) error {
	if a.Schema == "" {
		a.Schema = BenchSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("metrics: encoding bench artifact: %w", err)
	}
	return nil
}

// Round rounds x to the given number of decimal digits, normalizing the
// negative-zero representation so encodings stay byte-stable.
func Round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	r := math.Round(x*p) / p
	if r == 0 {
		return 0 // fold -0 into 0
	}
	return r
}

// DeltaPct returns the relative difference 100*(live-sim)/sim rounded to
// one decimal, or 0 when the baseline is not positive.
func DeltaPct(live, sim float64) float64 {
	if sim <= 0 {
		return 0
	}
	return Round(100*(live-sim)/sim, 1)
}

// Skew returns max/mean over per-backend counts (1.0 = perfectly
// balanced, 0 with no traffic), rounded to three decimals.
func Skew(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total, max int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return Round(float64(max)/mean, 3)
}
