// Package dispatch is the PRORD decision core: one clock-injected,
// transport-agnostic implementation of the paper's request-distribution
// logic shared by the discrete-event simulator (internal/cluster) and
// the live HTTP front-end (internal/httpfront). It owns everything that
// decides where a request goes — per-backend locality tracking, policy
// selection with the locality-only fallback, bundle-aware embedded-
// object forwarding, backend exclusion, the overload degrade ladder
// with its Critical-tier admission gate, the proactive prefetch
// planning of Algorithms 1–2 — and the request's lifecycle around the
// decision: failover under a retry budget (Failover), the gray-failure
// detector and its degraded mask, and what to hedge, where and when to
// stand down (HedgeDelay, Hedge, FinishHedge). The adapters own the
// transport: modeled CPUs/disks, events and virtual time on one side;
// the forwarder, circuit breakers, goroutines, contexts, the
// first-good-head referee and the wall clock on the other.
//
// Every method that consults or advances a clock takes the current time
// as an argument, so the simulator drives the core with virtual time
// and stays bit-reproducible (the repo's clockflow analyzer enforces
// this). The core is goroutine-safe and its decision read path is
// contention-free: the policy inputs (policies, bundle index,
// navigation predictor) are fixed at New and never replaced, so
// decisions read them without a lock; the navigation predictor learns
// in place, per connection, under one narrow tracker mutex (Algorithm
// 2's online tracking); and the mutable hot-path state (one record per
// file holding its backend sets and in-flight counts, the locality
// maps, session bindings) is striped into per-shard leaf locks keyed by
// file-path and connection hashes.
// A steady-state Route+Done pair takes no global lock and performs no
// heap allocation, so the live front-end scales across cores instead
// of serializing every request on one dispatcher mutex. Under the
// single-threaded simulator the same locks are uncontended and the
// core stays deterministic.
package dispatch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/cache"
	"prord/internal/health"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
)

// Features toggles PRORD's proactive enhancements inside the core —
// the ablation switches both adapters expose. Replication is not here:
// executing Algorithm 3's copies is substrate work (disk and network),
// owned by the adapters; the core only sheds its refresh ticks via
// ShedReplication.
type Features struct {
	// Bundle enables embedded-object classification against mined
	// bundles (the Fig. 4 forward module) and bundle prefetch planning.
	Bundle bool
	// NavPrefetch enables Algorithm 2's navigation prefetch planning.
	NavPrefetch bool
	// GroupPrefetch enables §4.1's user-category prefetch planning
	// (needs Miner.Categorizer; no-ops otherwise).
	GroupPrefetch bool
}

// any reports whether any proactive planning feature is on.
func (f Features) any() bool { return f.Bundle || f.NavPrefetch || f.GroupPrefetch }

// Config assembles a Core.
type Config struct {
	// Backends is the backend server count, 1 to 64. Required.
	Backends int
	// Policy is the distribution policy under test. Required.
	Policy policy.Policy
	// Fallback, when non-nil, replaces Policy from the Saturated tier up
	// (conventionally locality-only LARD).
	Fallback policy.Policy
	// Miner supplies bundles, the navigation predictor and the
	// categorizer. Required when any Feature is enabled.
	Miner *mining.Miner
	// Features selects the proactive enhancements the core plans for.
	Features Features
	// Exact selects the locality mode. True (the simulator): the adapter
	// owns ground-truth residency and reports it through NoteResident/
	// NoteGone; the core never guesses. False (the live front-end): the
	// core tracks locality optimistically — a backend is assumed to hold
	// a file after being routed it — in bounded per-backend LRU maps.
	Exact bool
	// LocalityEntries bounds the optimistic per-backend locality map.
	// Ignored in Exact mode. Default 4096.
	LocalityEntries int64
	// MaxSessions bounds tracked sessions; past it, idle sessions are
	// evicted. Default 65536.
	MaxSessions int
	// Shards is the lock-stripe count for session and file state.
	// Default 16. A small LocalityEntries or MaxSessions bound collapses
	// the stripe count so the bound splits exactly across stripes
	// instead of rounding up per stripe.
	Shards int
	// LoadOf, when non-nil, overrides the per-backend load signal (the
	// simulator reports modeled queue lengths). Nil uses the core's own
	// outstanding-request counters. Only consulted for available
	// backends.
	LoadOf func(server int) int
	// Available, when non-nil, reports whether a backend can take new
	// work at now (breaker closed, not crashed, not hibernating).
	// Unavailable backends are invisible to the policy. Nil means always
	// available.
	Available func(server int, now time.Time) bool
	// WakeFallback, when non-nil, is consulted when no backend is
	// available: it may bring one back (the simulator's wake-on-demand
	// power path) and return its index.
	WakeFallback func(now time.Time) (int, bool)
	// NavBudget, when non-nil, gates navigation/group prefetch planning
	// per backend (the simulator skips prefetching into a disk already
	// loaded with demand work). Nil means always.
	NavBudget func(server int) bool
	// Prefetchable, when non-nil, filters prefetch candidates (the
	// simulator rejects files with unknown sizes). Dynamic paths are
	// always rejected regardless.
	Prefetchable func(file string) bool
	// Overload enables the degrade ladder: estimator, tiered shedding
	// and Critical-tier admission. Nil disables the layer.
	Overload *overload.Config
	// Degraded, when non-nil, reports whether a backend is gray-failing
	// (the health detector's ejection verdict: alive, but serving
	// latencies far above the pool). Degraded backends stay available —
	// requests in flight finish and hard failures still go through the
	// breaker — but they are soft-excluded from new placements via the
	// accept mask, and a session pinned to one loses its pin on its next
	// request, re-binding through the normal routing path (progressive
	// rebinding rather than a mass detach). The hook is consulted on the
	// routing hot path, sometimes under shard leaf locks: it must be
	// lock-free and non-blocking (health.Detector.Degraded is). Nil
	// means no backend is ever degraded — bit-identical to the
	// pre-detector behavior. The adapters set Gray instead, whose
	// detector becomes this mask; Degraded is the hook for tests that
	// script the mask directly, and New rejects a config setting both.
	Degraded func(server int) bool
	// Gray enables the gray-failure layer: the latency-outlier detector
	// as the Degraded mask, and optionally hedged backups. Nil disables
	// it.
	Gray *GrayConfig
	// Retries is the per-request failover budget Failover spends: a
	// request whose attempt failed is re-booked on another backend at
	// most this many times. 0 means the default of 1; negative disables
	// failover.
	Retries int
	// Recorder, when non-nil, receives one Record per decision the core
	// makes, in decision order. It runs on the deciding goroutine and
	// must be fast; it exists for differential testing and diagnostics.
	Recorder func(Record)
}

// Verdict is the admission outcome for one request.
type Verdict int

const (
	// Admitted means the request may route now.
	Admitted Verdict = iota
	// Queued means the request holds a place in the bounded accept
	// queue; its grant callback runs when a slot frees, unless the
	// caller abandons the wait first.
	Queued
	// Shed means the request was refused (counted, never routed).
	Shed
)

// String returns the verdict's lower-case name.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case Queued:
		return "queued"
	case Shed:
		return "shed"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Record is one decision as the core made it, for differential testing
// between the simulator and live adapters: same trace in, identical
// record sequence out.
type Record struct {
	// Seq is the decision's position in the core's global order.
	Seq int64
	// Conn is the core-assigned connection id.
	Conn int
	// Path is the requested file.
	Path string
	// Tier is the degrade-ladder position the decision saw.
	Tier overload.Tier
	// Verdict is Admitted for routed decisions, Shed for refused ones.
	Verdict Verdict
	// Server is the chosen backend (-1 when shed or unroutable).
	Server int
	// Embedded reports bundle classification: the request followed its
	// main page directly.
	Embedded bool
	// Dispatch reports a dispatcher consultation (policy-level).
	Dispatch bool
	// Handoff reports a policy-level handoff, including a connection's
	// first binding (the simulator's metric).
	Handoff bool
	// Switched reports a genuine server change for an already-bound
	// connection (the live front-end's metric).
	Switched bool
	// Routed is false when no backend was available (the request failed
	// rather than shed).
	Routed bool
	// Retry marks a failover re-route booked by Rebook; Server is the
	// backend the retry went to.
	Retry bool
}

// Outcome is the result of one Route call.
type Outcome struct {
	// Conn is the core-assigned connection id for the session.
	Conn int
	// Server is the chosen backend.
	Server int
	// Source is a backend to pull the file's bytes from (back-end
	// forwarding), or -1.
	Source int
	// Dispatch reports a dispatcher consultation.
	Dispatch bool
	// Handoff reports a policy-level handoff including first bindings.
	Handoff bool
	// Switched reports a genuine move of an already-bound connection.
	Switched bool
	// Embedded reports that bundle classification matched.
	Embedded bool
	// HadServer reports that the connection was bound before this
	// request.
	HadServer bool
	// Tier is the ladder position the decision saw.
	Tier overload.Tier
	// OK is false when no backend was available; the request was counted
	// and released but not booked anywhere.
	OK bool
}

// Plan is the proactive work PlanProactive admitted and marked: lists
// of files to pull into the serving backend's memory, split by trigger
// so the simulator can model one batched disk read per trigger. Every
// listed file has already been marked prefetched at the target backend.
type Plan struct {
	// Server is the backend the plan targets.
	Server int
	// Bundle holds the served page's missing embedded objects (§4.1).
	Bundle []string
	// Nav holds Algorithm 2's predicted next page group.
	Nav []string
	// Group holds §4.1's category pages.
	Group []string
}

// Files returns the plan's targets in one slice, bundle first.
func (p Plan) Files() []string {
	out := make([]string, 0, len(p.Bundle)+len(p.Nav)+len(p.Group))
	out = append(out, p.Bundle...)
	out = append(out, p.Nav...)
	out = append(out, p.Group...)
	return out
}

// Stats are the core's decision counters. PerBackend is indexed by
// backend.
type Stats struct {
	// Requests counts every admission-considered request: routed,
	// unroutable and shed.
	Requests int64
	// Dispatches counts dispatcher consultations (Fig. 6's metric).
	Dispatches int64
	// DirectForwards counts non-dispatch forwards of bound connections.
	DirectForwards int64
	// Handoffs counts policy-level handoffs including first bindings
	// (the simulator's metric).
	Handoffs int64
	// Switches counts genuine server moves of bound connections (the
	// live front-end's handoff metric).
	Switches int64
	// Prefetches counts prefetch placements admitted by PlanProactive
	// and Rebook bookkeeping.
	Prefetches int64
	// PrefetchShed counts proactive passes suppressed at Elevated tier
	// or above.
	PrefetchShed int64
	// ReplicationsShed counts replication refreshes suppressed at
	// Elevated tier or above.
	ReplicationsShed int64
	// Shed counts demand requests refused by Critical-tier admission.
	Shed int64
	// Unroutable counts requests that found no available backend.
	Unroutable int64
	// Errors counts failed attempts reported through Done.
	Errors int64
	// Failovers counts requests that completed on a retry attempt.
	Failovers int64
	// Retries counts Rebook re-routes.
	Retries int64
	// GrayRebinds counts sessions that moved off a degraded backend:
	// bindings the detector's soft exclusion progressively re-routed.
	GrayRebinds int64
	// HedgesFired counts hedged backup attempts booked.
	HedgesFired int64
	// HedgeWins counts hedged attempts that delivered the response
	// (the primary was canceled).
	HedgeWins int64
	// PerBackend counts demand bookings per backend, including retries.
	PerBackend []int64
}

// Core is the shared decision engine. Build one with New; all methods
// are safe for concurrent use.
//
// Per-file state lives in one record per path in the path's file
// shard: the backends holding it (exact mode), the backends with a
// prefetch mark, the backends with a request in flight, and per-backend
// in-flight counts. Every such set — and every per-decision mask — is a
// ServerSet word, which caps a core at 64 backends.
//
// Lock hierarchy (machine-checked by internal/lint's lockorder analyzer —
// see lockHierarchy in internal/lint/lockset.go): locks nest only in
// ascending rank, and the leaf mutexes — the shard locks, the record
// emitter and the policy stripes — admit no nested acquisition and no
// blocking operation while held.
//
//	wrMu (10) → trackMu (20) → ovMu (30) → sessionShard.mu / fileShard.mu / leaves
//
// The routing read path takes none of the ranked locks: the policy
// inputs (cfg's policies and its Miner's bundle index) are fixed at
// New, and Route touches only leaf locks. wrMu serializes backend invalidation
// sweeps against each other, not against readers; trackMu serializes
// the navigation tracker, which trains its predictor in place.
type Core struct {
	cfg     Config
	nshards int
	ssh     []sessionShard
	fsh     []fileShard

	sessionsPerShard int

	loads      []atomic.Int64 // outstanding bookings per backend
	perBackend []atomic.Int64 // total bookings per backend
	hedges     []atomic.Int64 // outstanding hedged attempts per backend

	wrMu sync.Mutex // serializes invalidation sweeps

	emitter *recordEmitter // nil without a Recorder

	trackMu sync.Mutex // serializes the navigation tracker and its in-place learning
	tracker *mining.Tracker

	ovMu  sync.Mutex // serializes estimator and gate
	ovcfg overload.Config
	est   *overload.Estimator
	gate  *overload.Gate
	tierC atomic.Int32 // cached ladder position for lock-free reads

	gray     GrayConfig       // defaulted Config.Gray
	detector *health.Detector // nil with the gray layer off

	seq   atomic.Int64 // decision sequence for Records
	stats coreStats
}

type coreStats struct {
	requests, dispatches, directForwards, handoffs, switches atomic.Int64
	prefetches, prefetchShed, replicationsShed               atomic.Int64
	shed, unroutable, errors, failovers, retries             atomic.Int64
	grayRebinds, hedgesFired, hedgeWins, hedgeCancels        atomic.Int64
}

// New builds a Core from cfg.
func New(cfg Config) (*Core, error) {
	if cfg.Backends < 1 || cfg.Backends > maxBackends {
		return nil, fmt.Errorf("dispatch: Backends must be in [1, %d], got %d", maxBackends, cfg.Backends)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("dispatch: Config.Policy is required")
	}
	if cfg.Features.any() && cfg.Miner == nil {
		return nil, fmt.Errorf("dispatch: features %+v need a Miner", cfg.Features)
	}
	if cfg.LocalityEntries <= 0 {
		cfg.LocalityEntries = 4096
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 65536
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	var gray GrayConfig
	var detector *health.Detector
	if cfg.Gray != nil {
		if cfg.Degraded != nil {
			return nil, fmt.Errorf("dispatch: set Config.Gray or Config.Degraded, not both")
		}
		gray = cfg.Gray.WithDefaults()
		if gray.HedgeCap < 0 {
			return nil, fmt.Errorf("dispatch: Gray.HedgeCap must not be negative, got %d", gray.HedgeCap)
		}
		detector = health.NewDetector(cfg.Backends, gray.Detector)
		cfg.Degraded = detector.Degraded
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if !cfg.Exact {
		// A stripe is only worth its lock when it carries a meaningful
		// slice of the locality budget; with a tiny bound, extra stripes
		// would each round up to at least one entry and overshoot it.
		if maxUseful := int((cfg.LocalityEntries + 255) / 256); maxUseful < cfg.Shards {
			cfg.Shards = maxUseful
		}
	}
	// Same for the session valve: MaxSessions splits evenly across
	// stripes, and each stripe's share must stay large enough that the
	// global bound holds to within a stripe's rounding.
	if maxUseful := (cfg.MaxSessions + 255) / 256; maxUseful < cfg.Shards {
		cfg.Shards = maxUseful
	}
	c := &Core{
		cfg:        cfg,
		nshards:    cfg.Shards,
		loads:      make([]atomic.Int64, cfg.Backends),
		perBackend: make([]atomic.Int64, cfg.Backends),
		hedges:     make([]atomic.Int64, cfg.Backends),
		gray:       gray,
		detector:   detector,
	}
	if cfg.Recorder != nil {
		c.emitter = newRecordEmitter(cfg.Recorder)
	}
	c.sessionsPerShard = cfg.MaxSessions / c.nshards
	if c.sessionsPerShard < 1 {
		c.sessionsPerShard = 1
	}
	c.ssh = make([]sessionShard, c.nshards)
	for i := range c.ssh {
		c.ssh[i].byKey = make(map[string]*session)
		c.ssh[i].byID = make(map[int]*session)
	}
	c.fsh = make([]fileShard, c.nshards)
	for i := range c.fsh {
		f := &c.fsh[i]
		f.files = make(map[string]*fileState)
		if !cfg.Exact {
			f.locality = make([]*cache.LRU, cfg.Backends)
			for s := range f.locality {
				f.locality[s] = newShardLRU(cfg.LocalityEntries, c.nshards)
			}
		}
	}
	if cfg.Miner != nil && cfg.Miner.Bundles != nil {
		// Force the lazy bundle materialization now: afterwards Parent and
		// Objects are read-only and safe without a lock on the hot path.
		cfg.Miner.Bundles.Pages()
	}
	if cfg.Features.NavPrefetch && cfg.Miner != nil {
		// The tracker trains the predictor in place per observation,
		// under trackMu.
		nav := cfg.Miner.Nav
		if nav == nil {
			nav = cfg.Miner.Model
		}
		c.tracker = mining.NewTracker(nav, true)
	}
	if cfg.Overload != nil {
		oc := cfg.Overload.WithDefaults()
		if err := oc.Validate(); err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
		c.ovcfg = oc
		c.est = overload.NewEstimator(oc, cfg.Backends)
		c.gate = overload.NewGate(oc.CapacityPerBackend*cfg.Backends, oc.QueueLimit)
	}
	return c, nil
}

// Tier returns the degrade ladder's current position (Normal when the
// overload layer is disabled). Lock-free.
func (c *Core) Tier() overload.Tier {
	return overload.Tier(c.tierC.Load())
}

// QueueTimeout returns the configured Critical-tier queue wait bound
// (zero when the overload layer is disabled).
func (c *Core) QueueTimeout() time.Duration {
	if c.est == nil {
		return 0
	}
	return c.ovcfg.QueueTimeout
}

// RetryAfter returns the advertised shed-response backoff in whole
// seconds (the package default when the overload layer is disabled).
func (c *Core) RetryAfter() int {
	if c.est == nil {
		return 1
	}
	return c.ovcfg.RetryAfter
}

// ShedReplication reports whether the degrade ladder currently sheds
// replication refresh (Elevated tier or above) and counts the skipped
// round when it does.
func (c *Core) ShedReplication() bool {
	if c.Tier() < overload.Elevated {
		return false
	}
	c.stats.replicationsShed.Add(1)
	return true
}

// OverloadSnapshot is the overload layer's observable state, as the
// live cluster stats endpoint exposes it.
type OverloadSnapshot struct {
	// Tier is the current degrade-ladder position.
	Tier overload.Tier `json:"tier"`
	// Pressure is the load estimate (1.0 = at capacity).
	Pressure float64 `json:"pressure"`
	// InFlight is the admission gate's admitted-request count.
	InFlight int `json:"in_flight"`
	// Queued is the Critical-tier accept queue's occupancy.
	Queued int `json:"queued"`
	// Transitions is the ladder history since the first request.
	Transitions []overload.Transition `json:"transitions"`
}

// Overload returns the overload layer's snapshot, or nil when the layer
// is disabled.
func (c *Core) Overload() *OverloadSnapshot {
	if c.est == nil {
		return nil
	}
	c.ovMu.Lock()
	defer c.ovMu.Unlock()
	return &OverloadSnapshot{
		Tier:        c.est.Tier(),
		Pressure:    c.est.Pressure(),
		InFlight:    c.gate.InFlight(),
		Queued:      c.gate.Queued(),
		Transitions: c.est.Transitions(),
	}
}

// TierTransitions returns the ladder history (nil when the overload
// layer is disabled).
func (c *Core) TierTransitions() []overload.Transition {
	if c.est == nil {
		return nil
	}
	c.ovMu.Lock()
	defer c.ovMu.Unlock()
	return c.est.Transitions()
}

// Stats returns a snapshot of the decision counters.
func (c *Core) Stats() Stats {
	s := Stats{
		Requests:         c.stats.requests.Load(),
		Dispatches:       c.stats.dispatches.Load(),
		DirectForwards:   c.stats.directForwards.Load(),
		Handoffs:         c.stats.handoffs.Load(),
		Switches:         c.stats.switches.Load(),
		Prefetches:       c.stats.prefetches.Load(),
		PrefetchShed:     c.stats.prefetchShed.Load(),
		ReplicationsShed: c.stats.replicationsShed.Load(),
		Shed:             c.stats.shed.Load(),
		Unroutable:       c.stats.unroutable.Load(),
		Errors:           c.stats.errors.Load(),
		Failovers:        c.stats.failovers.Load(),
		Retries:          c.stats.retries.Load(),
		GrayRebinds:      c.stats.grayRebinds.Load(),
		HedgesFired:      c.stats.hedgesFired.Load(),
		HedgeWins:        c.stats.hedgeWins.Load(),
		PerBackend:       make([]int64, len(c.perBackend)),
	}
	for i := range c.perBackend {
		s.PerBackend[i] = c.perBackend[i].Load()
	}
	return s
}
