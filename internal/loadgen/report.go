package loadgen

import (
	"fmt"
	"io"
	"time"

	"prord/internal/metrics"
)

// Result is one campaign's outcome: the effective configuration, the
// deterministic workload description and one BenchRun per policy.
type Result struct {
	Config   Config
	Workload Workload
	Runs     []metrics.BenchRun
}

// configJSON is the artifact's stable echo of the configuration: fixed
// field order, durations as integer milliseconds.
type configJSON struct {
	Mode          string   `json:"mode"`
	Policies      []string `json:"policies"`
	Backends      int      `json:"backends"`
	RateRPS       float64  `json:"rate_rps,omitempty"`
	RampToRPS     float64  `json:"ramp_to_rps,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	Sessions      int      `json:"sessions,omitempty"`
	Concurrency   int      `json:"concurrency,omitempty"`
	ThinkMS       int64    `json:"think_ms,omitempty"`
	DurationMS    int64    `json:"duration_ms"`
	WarmupMS      int64    `json:"warmup_ms"`
	Seed          int64    `json:"seed"`
	Preset        string   `json:"preset"`
	Scale         float64  `json:"scale"`
	TrainFraction float64  `json:"train_fraction"`
	CacheBytes    int64    `json:"cache_bytes"`
	MissLatencyMS int64    `json:"miss_latency_ms"`
	// Fault-tolerance knobs are omitted when unused so pre-existing
	// fault-free artifacts stay byte-identical.
	Faults          []faultJSON `json:"faults,omitempty"`
	ProbeIntervalMS int64       `json:"probe_interval_ms,omitempty"`
	FrontRetries    int         `json:"front_retries,omitempty"`
	DeadlineMS      int64       `json:"deadline_ms,omitempty"`
	// Overload echoes the effective (defaulted) overload configuration;
	// omitted when overload control is off so older artifacts are
	// unchanged.
	Overload *overloadJSON `json:"overload,omitempty"`
	// Gray echoes the effective (defaulted) gray-failure resilience
	// configuration; omitted when the layer is off so older artifacts
	// are unchanged.
	Gray       *grayJSON `json:"gray,omitempty"`
	CompareSim bool      `json:"compare_sim"`
}

// overloadJSON is the stable echo of the overload configuration.
type overloadJSON struct {
	CapacityPerBackend int     `json:"capacity_per_backend"`
	QueueLimit         int     `json:"queue_limit"`
	ElevatedAt         float64 `json:"elevated_at"`
	SaturatedAt        float64 `json:"saturated_at"`
	CriticalAt         float64 `json:"critical_at"`
	MinHoldMS          int64   `json:"min_hold_ms"`
}

// grayJSON is the stable echo of the effective (defaulted)
// gray-failure resilience configuration.
type grayJSON struct {
	Window        int     `json:"window"`
	MinSamples    int     `json:"min_samples"`
	Multiplier    float64 `json:"multiplier"`
	HoldMS        int64   `json:"hold_ms"`
	EjectMS       int64   `json:"eject_ms"`
	MaxEjectMS    int64   `json:"max_eject_ms"`
	RecoverHoldMS int64   `json:"recover_hold_ms"`
	Hedge         bool    `json:"hedge"`
	HedgeCap      int     `json:"hedge_cap,omitempty"`
}

// faultJSON is the stable echo of one scheduled backend fault. The
// gray-mode fields are omitted for fail-stop faults so pre-existing
// artifacts stay byte-identical.
type faultJSON struct {
	Backend   int     `json:"backend"`
	AtMS      int64   `json:"at_ms"`
	RecoverMS int64   `json:"recover_ms,omitempty"`
	Mode      string  `json:"mode,omitempty"`
	SlowdownX float64 `json:"slowdown_x,omitempty"`
	ErrRate   float64 `json:"err_rate,omitempty"`
	FlapMS    int64   `json:"flap_ms,omitempty"`
}

// Artifact assembles the versioned machine-readable artifact. Stamp and
// Encode it to produce the artifact file. With the same seed and
// configuration, every field except generated_at and the genuinely
// measured live quantities (latency summaries, hit rates, prefetch and
// handoff counts) is byte-identical across runs; the config, workload
// and sim blocks are always byte-identical.
func (r *Result) Artifact() *metrics.BenchArtifact {
	cfg := configJSON{
		Mode:            r.Config.Mode.String(),
		Policies:        r.Config.Policies,
		Backends:        r.Config.Backends,
		DurationMS:      r.Config.Duration.Milliseconds(),
		WarmupMS:        r.Config.Warmup.Milliseconds(),
		Seed:            r.Config.Seed,
		Preset:          r.Config.Preset.String(),
		Scale:           r.Config.Scale,
		TrainFraction:   r.Config.TrainFraction,
		CacheBytes:      r.Config.CacheBytes,
		MissLatencyMS:   r.Config.MissLatency.Milliseconds(),
		ProbeIntervalMS: r.Config.ProbeInterval.Milliseconds(),
		FrontRetries:    r.Config.FrontRetries,
		DeadlineMS:      r.Config.Deadline.Milliseconds(),
		CompareSim:      r.Config.CompareSim,
	}
	for _, f := range r.Config.Faults {
		cfg.Faults = append(cfg.Faults, faultJSON{
			Backend: f.Server, AtMS: f.At.Milliseconds(), RecoverMS: f.RecoverAt.Milliseconds(),
			Mode: f.Mode.String(), SlowdownX: f.Slowdown, ErrRate: f.ErrRate,
			FlapMS: f.FlapPeriod.Milliseconds(),
		})
	}
	if oc := r.Config.Overload; oc != nil {
		eff := oc.WithDefaults()
		cfg.Overload = &overloadJSON{
			CapacityPerBackend: eff.CapacityPerBackend,
			QueueLimit:         eff.QueueLimit,
			ElevatedAt:         eff.ElevatedAt,
			SaturatedAt:        eff.SaturatedAt,
			CriticalAt:         eff.CriticalAt,
			MinHoldMS:          eff.MinHold.Milliseconds(),
		}
	}
	if gc := r.Config.Gray; gc != nil {
		eff := gc.WithDefaults()
		det, cap := eff.Detector, 0
		if gc.Hedge {
			cap = eff.HedgeCap
		}
		cfg.Gray = &grayJSON{
			Window:        det.Window,
			MinSamples:    det.MinSamples,
			Multiplier:    det.Multiplier,
			HoldMS:        det.Hold.Milliseconds(),
			EjectMS:       det.Eject.Milliseconds(),
			MaxEjectMS:    det.MaxEject.Milliseconds(),
			RecoverHoldMS: det.RecoverHold.Milliseconds(),
			Hedge:         gc.Hedge,
			HedgeCap:      cap,
		}
	}
	switch r.Config.Mode {
	case OpenLoop:
		cfg.RateRPS = r.Config.Rate
		cfg.RampToRPS = r.Config.RampTo
		cfg.Workers = r.Config.Workers
	case ClosedLoop:
		cfg.Sessions = r.Config.Sessions
		cfg.Concurrency = r.Config.Concurrency
		cfg.ThinkMS = r.Config.Think.Milliseconds()
	}
	return &metrics.BenchArtifact{
		Schema:   metrics.BenchSchema,
		Tool:     "prord-loadgen",
		Config:   cfg,
		Workload: r.Workload,
		Runs:     r.Runs,
	}
}

// WriteTable renders the campaign as a human-readable table.
func (r *Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"prord-loadgen: mode=%s %d backends, %d scheduled requests (%s), warmup %v of %v\n\n",
		r.Config.Mode, r.Config.Backends, r.Workload.Scheduled, r.Workload.Preset,
		r.Config.Warmup, r.Config.Duration); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-16s %9s %9s %9s %9s %7s %6s %9s %7s\n",
		"policy", "req/s", "p50", "p90", "p99", "hit", "skew", "disp/req", "errors"); err != nil {
		return err
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if _, err := fmt.Fprintf(w, "%-16s %9.1f %9v %9v %9v %7.3f %6.2f %9.3f %7d\n",
			run.Name, run.ThroughputRPS,
			round(run.Latency.P50NS), round(run.Latency.P90NS), round(run.Latency.P99NS),
			run.HitRate, run.LoadSkew, run.DispatchPerRequest, run.Errors); err != nil {
			return err
		}
		if run.Failovers > 0 || run.Retries > 0 {
			if _, err := fmt.Fprintf(w, "%-16s failovers=%d retries=%d\n",
				"  fault-tolerance", run.Failovers, run.Retries); err != nil {
				return err
			}
		}
		if run.Shed > 0 || run.PrefetchShed > 0 {
			if _, err := fmt.Fprintf(w, "%-16s shed=%d prefetch_shed=%d goodput=%.1f req/s tiers=%d\n",
				"  overload", run.Shed, run.PrefetchShed, run.GoodputRPS,
				len(run.TierTransitions)); err != nil {
				return err
			}
		}
		if g := run.Gray; g != nil && (g.Ejections > 0 || g.HedgesFired > 0) {
			if _, err := fmt.Fprintf(w,
				"%-16s ejections=%d recoveries=%d rebinds=%d hedges=%d/%d won cancels=%d\n",
				"  gray", g.Ejections, g.Recoveries, g.GrayRebinds,
				g.HedgeWins, g.HedgesFired, g.HedgeCancels); err != nil {
				return err
			}
		}
		if run.Sim != nil {
			if _, err := fmt.Fprintf(w, "%-16s %9.1f %27s mean Δ %+.1f%%  thr Δ %+.1f%%  hit %.3f\n",
				"  vs sim", run.Sim.ThroughputRPS, "",
				run.Sim.MeanLatencyDeltaPct, run.Sim.ThroughputDeltaPct, run.Sim.HitRate); err != nil {
				return err
			}
		}
	}
	return nil
}

// round renders integer nanoseconds as a duration rounded for the table.
func round(ns int64) time.Duration {
	return time.Duration(ns).Round(100 * time.Microsecond)
}
