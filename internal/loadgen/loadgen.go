// Package loadgen is a concurrent trace-replay load generator for the
// live HTTP cluster: it boots demo backends behind the httpfront
// distributor, replays a generated workload against the front-end over
// real sockets, and measures what the paper's evaluation measures —
// throughput, response-time percentiles, dispatch frequency, backend
// cache hit rates and per-backend load skew (§5.1, §5.2).
//
// Two replay modes are supported:
//
//   - Open loop: requests arrive on a Poisson schedule at a configured
//     aggregate rate, issued regardless of completions. The arrival
//     schedule is precomputed from seeded randutil sources, so the
//     offered workload (arrival times, request paths, counts) is
//     byte-identical across runs with the same seed.
//   - Closed loop: K concurrent clients replay per-session request
//     scripts from the trace (trace.SessionScripts), each session on its
//     own keep-alive connection with think time between pages — the
//     paper's browsing model, where new requests wait for completions.
//
// Completions inside the warmup window are recorded separately so cold
// caches do not pollute the measurement, and an optional Compare step
// runs the discrete-event simulator on the same workload and policy and
// reports live-vs-sim deltas for the headline metrics.
package loadgen

import (
	"fmt"
	"strings"
	"time"

	"prord/internal/cluster"
	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

// Mode selects how the generator paces requests.
type Mode int

const (
	// OpenLoop issues requests on a precomputed Poisson arrival
	// schedule, independent of completions.
	OpenLoop Mode = iota
	// ClosedLoop replays per-session scripts with a bounded number of
	// concurrent clients; a session's next request waits for the
	// previous response (plus think time between pages).
	ClosedLoop
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case OpenLoop:
		return "open"
	case ClosedLoop:
		return "closed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -mode flag value ("open" or "closed").
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "open":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	default:
		return 0, fmt.Errorf("loadgen: unknown mode %q (want open or closed)", s)
	}
}

// CanonicalPolicy resolves a case-insensitive policy name ("prord",
// "lard/r") to its canonical spelling from policy.Names.
func CanonicalPolicy(name string) (string, error) {
	want := strings.TrimSpace(name)
	for _, n := range policy.Names() {
		if strings.EqualFold(n, want) {
			return n, nil
		}
	}
	return "", fmt.Errorf("loadgen: unknown policy %q (want one of %s)",
		name, strings.Join(policy.Names(), ", "))
}

// Config parameterizes a load-generation campaign. The zero value is not
// usable; fill at least Mode, Policies and the mode's pacing knobs, then
// Validate (New validates for you).
type Config struct {
	// Mode selects open- or closed-loop pacing.
	Mode Mode
	// Policies are the distribution policies to benchmark, one run per
	// policy. Names are canonicalized case-insensitively against
	// policy.Names.
	Policies []string
	// Backends is the number of demo backend servers. Default 4.
	Backends int

	// Rate is the aggregate open-loop arrival rate in requests/second.
	// Required (positive) in open mode, ignored in closed mode.
	Rate float64
	// RampTo, when positive, turns the open-loop schedule into a linear
	// rate ramp: the aggregate arrival rate starts at Rate and reaches
	// RampTo at the end of Duration. Zero keeps the flat Poisson
	// schedule (and the byte-identical arrival streams of older seeds).
	// Open mode only.
	RampTo float64
	// Workers is the number of open-loop client connections the schedule
	// is partitioned over. Default 8.
	Workers int

	// Sessions is how many trace sessions closed-loop replay uses.
	// Default 200 (clamped to the trace's session count).
	Sessions int
	// Concurrency is the number of concurrent closed-loop clients.
	// Default 16.
	Concurrency int
	// Think is the closed-loop pause before each page request (embedded
	// objects follow immediately). Default 25ms; set negative for none.
	Think time.Duration

	// Duration bounds the run; the open-loop schedule spans exactly this
	// window, closed-loop replay stops issuing at the deadline. Default
	// 10s.
	Duration time.Duration
	// Warmup is the initial window excluded from measurement. Must be
	// shorter than Duration. Default 1s.
	Warmup time.Duration

	// Seed derives every random stream (site, trace, schedules).
	Seed int64
	// Preset selects the generated workload (default PresetCS's zero
	// value; commands default to synthetic explicitly).
	Preset trace.Preset
	// Scale scales the preset's request count. Default 0.2.
	Scale float64
	// TrainFraction is the trace prefix mined for the navigation model;
	// the remainder is replayed. Default 0.5.
	TrainFraction float64

	// CacheBytes is each demo backend's memory cache. Default 4 MiB.
	CacheBytes int64
	// MissLatency is the simulated disk latency per backend cache miss.
	// Zero is no latency (the 8ms default is the -miss-ms flag's, not
	// this field's); negative values are clamped to zero.
	MissLatency time.Duration

	// Faults schedules backend failures during each live run, in the
	// simulator's own type: offsets count from run start — the clock
	// the open-loop arrival schedule uses, so "kill backend 1 at 5s"
	// lines up with the offered workload — and with CompareSim the
	// simulator runs the same schedule. Closed-loop replay is
	// completion-paced and its sim comparison compresses session times
	// onto the measurement window, so offsets there are approximate in
	// the simulator. Empty means a fault-free run.
	Faults []cluster.Failure
	// Health tunes the front-end's per-backend circuit breakers
	// (httpfront.Config.Health); the zero value uses that package's
	// defaults.
	Health health.Config
	// ProbeInterval enables the front-end's active health probes of
	// tripped backends. Default 0 (disabled); probes never touch
	// healthy backends, so fault-free runs are unaffected either way.
	ProbeInterval time.Duration
	// FrontRetries sets the front-end's failover retry budget per
	// request (httpfront.Config.Retries): 0 means the front-end default
	// of one retry, negative disables retries.
	FrontRetries int

	// Overload enables the front-end's load estimator, degrade ladder and
	// admission control (httpfront.Config.Overload); with CompareSim the
	// same configuration drives the decision core's ladder in the
	// simulator run so shed counts and tier transitions can be compared.
	// Nil disables both.
	Overload *overload.Config

	// Gray enables the front-end's gray-failure resilience layer
	// (httpfront.Config.Gray): the relative latency-outlier detector
	// with progressive session rebinding, plus optional hedged backup
	// requests and per-request deadline budgets. With CompareSim the
	// detector and hedging also drive the simulator's gray layer;
	// deadlines are a live-transport concern with no sim counterpart.
	// Nil disables the layer.
	Gray *httpfront.GrayConfig

	// CompareSim runs the discrete-event simulator on the same workload
	// and policy after each live run and attaches live-vs-sim deltas.
	CompareSim bool
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Backends == 0 {
		c.Backends = 4
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.Sessions == 0 {
		c.Sessions = 200
	}
	if c.Concurrency == 0 {
		c.Concurrency = 16
	}
	if c.Think == 0 {
		c.Think = 25 * time.Millisecond
	} else if c.Think < 0 {
		c.Think = 0
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = time.Second
	}
	if c.Scale == 0 {
		c.Scale = 0.2
	}
	if c.TrainFraction == 0 {
		c.TrainFraction = 0.5
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 4 << 20
	}
	if c.MissLatency < 0 {
		c.MissLatency = 0
	}
	return c
}

// Validate checks the configuration, returning the first problem found.
// It expects defaults to be applied already (New does both).
func (c Config) Validate() error {
	if len(c.Policies) == 0 {
		return fmt.Errorf("loadgen: at least one policy required")
	}
	for _, p := range c.Policies {
		if _, err := CanonicalPolicy(p); err != nil {
			return err
		}
	}
	if c.Backends <= 0 {
		return fmt.Errorf("loadgen: backends must be positive, got %d", c.Backends)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive, got %v", c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("loadgen: warmup must not be negative, got %v", c.Warmup)
	}
	if c.Duration <= c.Warmup {
		return fmt.Errorf("loadgen: duration (%v) must exceed warmup (%v)", c.Duration, c.Warmup)
	}
	if c.RampTo < 0 {
		return fmt.Errorf("loadgen: ramp-to rate must not be negative, got %v", c.RampTo)
	}
	switch c.Mode {
	case OpenLoop:
		if c.Rate <= 0 {
			return fmt.Errorf("loadgen: open-loop rate must be positive, got %v", c.Rate)
		}
		if c.Workers <= 0 {
			return fmt.Errorf("loadgen: workers must be positive, got %d", c.Workers)
		}
	case ClosedLoop:
		if c.RampTo > 0 {
			return fmt.Errorf("loadgen: rate ramp requires open mode")
		}
		if c.Sessions <= 0 {
			return fmt.Errorf("loadgen: sessions must be positive, got %d", c.Sessions)
		}
		if c.Concurrency <= 0 {
			return fmt.Errorf("loadgen: concurrency must be positive, got %d", c.Concurrency)
		}
	default:
		return fmt.Errorf("loadgen: unknown mode %d", int(c.Mode))
	}
	if c.Scale <= 0 {
		return fmt.Errorf("loadgen: scale must be positive, got %v", c.Scale)
	}
	if c.TrainFraction <= 0 || c.TrainFraction >= 1 {
		return fmt.Errorf("loadgen: train fraction must be in (0,1), got %v", c.TrainFraction)
	}
	if c.CacheBytes <= 0 {
		return fmt.Errorf("loadgen: cache size must be positive, got %d", c.CacheBytes)
	}
	if c.MissLatency < 0 {
		return fmt.Errorf("loadgen: miss latency must not be negative, got %v", c.MissLatency)
	}
	if c.ProbeInterval < 0 {
		return fmt.Errorf("loadgen: probe interval must not be negative, got %v", c.ProbeInterval)
	}
	if c.Overload != nil {
		if err := c.Overload.WithDefaults().Validate(); err != nil {
			return err
		}
	}
	return cluster.ValidateFailures(c.Faults, c.Backends)
}
