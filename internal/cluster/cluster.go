package cluster

import (
	"fmt"
	"time"

	"prord/internal/cache"
	"prord/internal/dispatch"
	"prord/internal/metrics"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/replicate"
	"prord/internal/sim"
	"prord/internal/trace"
)

// Config assembles a simulated cluster.
type Config struct {
	// Params are the Table 1 system parameters.
	Params Params
	// Policy is the request-distribution policy under test.
	Policy policy.Policy
	// Features selects PRORD's proactive enhancements.
	Features Features
	// Miner supplies the web-log mining products. Required when any
	// feature is enabled.
	Miner *mining.Miner
	// ReplicationInterval is Algorithm 3's period t. Zero defaults to 5s
	// of simulated time.
	ReplicationInterval time.Duration
	// ReplicateConfig tunes Algorithm 3's thresholds.
	ReplicateConfig replicate.Config
	// UseGDSF selects GDSF instead of LRU for the demand caches; when
	// NavPrefetch is on it becomes GDSF-split fed by predicted future
	// frequency (the [20] extension).
	UseGDSF bool
	// Failures injects backend failures. The default mode is a fail-stop
	// crash: the backend loses its memory, is removed from the
	// dispatcher's maps and receives no new work; requests caught on it
	// are retried elsewhere (counted as failovers), and recovery brings
	// the backend back with a cold cache. The gray modes (Slow, ErrRate,
	// Flap) leave the backend in the pool and degrade it instead — the
	// failure surface Config.Gray's detection and hedging layer exists
	// to absorb.
	Failures []Failure
	// Gray enables the gray-failure resilience layer: the relative
	// slow-backend detector feeding the core's Degraded hook, plus
	// optional hedged backup requests. Nil disables the layer (injected
	// gray failures then hit the cluster with no defense, the baseline
	// TestGrayLayerCutsP99AtLeast2x compares against).
	Gray *GrayConfig
	// Power enables PARD-style [3] power management with Table 1's power
	// parameters.
	Power PowerParams
	// Distributors is the number of front-end distributor nodes behind an
	// L4 switch (Aron et al. [4], §2.1: the scalable content-aware
	// architecture). Connections stick to one distributor; dispatcher
	// state is shared. 0 or 1 = the paper's single-front-end design.
	Distributors int
	// Overload enables the same degrade ladder the live front-end runs,
	// driven by virtual time: Elevated sheds prefetch and replication
	// work, Saturated falls back to locality-only LARD, and Critical runs
	// bounded-queue admission. The shared dispatch core models the live
	// accept queue directly — a queued request waits up to QueueTimeout
	// of virtual time for a slot before it is shed — so simulated and
	// live shed decisions follow the same code path. Nil disables the
	// layer.
	Overload *overload.Config
	// Recorder, when non-nil, receives every decision the dispatch core
	// makes, in decision order (differential testing against the live
	// front-end).
	Recorder func(dispatch.Record)
}

// Failure is one injected backend failure.
type Failure struct {
	// Server is the backend index to degrade.
	Server int
	// At is the virtual time the failure starts.
	At time.Duration
	// RecoverAt, when positive and after At, ends the failure at that
	// time; zero means it lasts for the rest of the run. Flap requires
	// it (the toggle schedule needs a finite horizon).
	RecoverAt time.Duration
	// Mode is the failure kind; the zero value is FailStop.
	Mode FailureMode
	// Slowdown is Slow's service-time multiplier (> 1).
	Slowdown float64
	// ErrRate is ErrRate's per-request failure probability in (0, 1).
	ErrRate float64
	// FlapPeriod is Flap's half-cycle: down for one period, up for the
	// next, starting down at At.
	FlapPeriod time.Duration
}

// backend is one backend server: CPU, disk, internal NIC and memory.
type backend struct {
	id    int
	cpu   *sim.FCFS
	disk  *sim.FCFS
	net   *sim.FCFS
	store cache.Store
	// served counts requests this backend completed (Fig. 7 sums these).
	served int64
}

// Cluster is a runnable simulated web cluster: the exact-locality
// adapter around the shared dispatch core. The core makes every routing
// decision; the cluster models the substrate — virtual time, CPUs,
// disks, the internal network, caches and power state — and reports
// ground-truth residency back. Build one with New, run a trace with
// Run; a Cluster is single-use.
type Cluster struct {
	cfg      Config
	eng      *sim.Engine
	backends []*backend
	fronts   []*sim.FCFS

	core    *dispatch.Core
	replmgr *replicate.Manager

	// replicas tracks Algorithm 3's placements (file -> backends); the
	// replication manager owns placement, the core only routes to them
	// through the residency it is told about.
	replicas map[string]dispatch.ServerSet
	// waiters holds demand requests blocked on an in-flight prefetch of
	// the same file at the same backend, so demand traffic piggybacks on
	// the prefetch disk read instead of issuing a duplicate one.
	waiters map[waiterKey][]*flight

	met       metrics.Collector
	tr        *trace.Trace // the trace Run is replaying
	files     map[string]int64
	power     *powerTracker // nil unless Config.Power.Enabled
	gray      *grayState    // gray-fault injection + detection/hedging layer
	down      []bool        // per backend: currently crashed
	remaining int           // requests not yet completed
	firstArr  time.Duration // earliest request issue time
	lastDone  time.Duration // latest completion time
	ran       bool
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: Config.Policy is required")
	}
	if cfg.Features.Any() && cfg.Miner == nil {
		return nil, fmt.Errorf("cluster: features %+v need a Miner", cfg.Features)
	}
	if cfg.Gray != nil && cfg.Gray.HedgeCap < 0 {
		return nil, fmt.Errorf("cluster: Gray.HedgeCap must not be negative, got %d", cfg.Gray.HedgeCap)
	}
	if cfg.ReplicationInterval <= 0 {
		cfg.ReplicationInterval = 5 * time.Second
	}
	c := &Cluster{
		cfg:      cfg,
		eng:      &sim.Engine{},
		replicas: make(map[string]dispatch.ServerSet),
		waiters:  make(map[waiterKey][]*flight),
	}
	total := cfg.Params.AppMemory + cfg.Params.PinnedMemory
	maxPinned := cfg.Params.PinnedMemory
	if !cfg.Features.Any() {
		// Baselines never pin, so the whole memory serves demand traffic.
		maxPinned = 0
	}
	if cfg.Distributors < 1 {
		cfg.Distributors = 1
		c.cfg.Distributors = 1
	}
	for i := 0; i < cfg.Distributors; i++ {
		c.fronts = append(c.fronts, sim.NewFCFS(c.eng))
	}
	for i := 0; i < cfg.Params.Backends; i++ {
		var store cache.Store
		if cfg.UseGDSF {
			// GDSF keeps a fixed split: a GDSF demand partition plus an
			// LRU pinned partition.
			demand := total - maxPinned
			var main cache.Cache
			if cfg.Features.NavPrefetch {
				main = cache.NewGDSFSplit(demand, 2)
			} else {
				main = cache.NewGDSF(demand)
			}
			store = cache.NewPartitioned(main, cache.NewLRU(maxPinned))
		} else {
			// LRU mode models Table 1's "pinned memory (variable)": one
			// shared pool whose pinned bytes are capped but whose free
			// pinned space serves demand.
			store = cache.NewPinning(total, maxPinned)
		}
		c.backends = append(c.backends, &backend{
			id:    i,
			cpu:   sim.NewFCFS(c.eng),
			disk:  sim.NewFCFS(c.eng),
			net:   sim.NewFCFS(c.eng),
			store: store,
		})
	}
	c.down = make([]bool, cfg.Params.Backends)
	c.gray = newGrayState(cfg.Params.Backends, cfg.Gray)
	if err := ValidateFailures(cfg.Failures, cfg.Params.Backends); err != nil {
		return nil, err
	}
	if cfg.Features.Replication {
		c.replmgr = replicate.NewManager(cfg.Miner.Ranker, cfg.ReplicateConfig)
	}
	if cfg.Power.Enabled {
		c.power = newPowerTracker(cfg.Power, cfg.Params.Backends)
	}

	dcfg := dispatch.Config{
		Backends: cfg.Params.Backends,
		Policy:   cfg.Policy,
		Miner:    cfg.Miner,
		Features: dispatch.Features{
			Bundle:        cfg.Features.Bundle,
			NavPrefetch:   cfg.Features.NavPrefetch,
			GroupPrefetch: cfg.Features.GroupPrefetch,
		},
		// The simulator reports ground-truth residency from its modeled
		// caches; the core never guesses locality.
		Exact: true,
		// Replayed sessions are closed explicitly when their script ends;
		// the idle-eviction valve must never fire mid-trace.
		MaxSessions: 1 << 30,
		// Single-threaded replay needs no lock striping, and one stripe
		// keeps connection ids dense.
		Shards: 1,
		LoadOf: func(server int) int {
			b := c.backends[server]
			return b.cpu.QueueLen() + b.disk.QueueLen()
		},
		Available: func(server int, _ time.Time) bool { return !c.unavailable(server) },
		NavBudget: func(server int) bool {
			lim := c.cfg.Params.PrefetchQueueLimit
			return lim <= 0 || c.backends[server].disk.QueueLen() <= lim
		},
		Prefetchable: func(file string) bool {
			_, known := c.files[file]
			return known
		},
		Overload: cfg.Overload,
		Recorder: cfg.Recorder,
	}
	if c.gray.detector != nil {
		// Degraded backends are soft-excluded from new placements and
		// their sessions progressively rebound — same hook the live
		// front-end wires.
		dcfg.Degraded = c.gray.detector.Degraded
	}
	if cfg.Overload != nil {
		// Saturated-tier routing degrades to locality-only LARD.
		dcfg.Fallback = policy.NewLARD(policy.Thresholds{})
	}
	if cfg.Power.Enabled {
		dcfg.WakeFallback = c.wakeFallback
	}
	core, err := dispatch.New(dcfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.core = core
	return c, nil
}

// Core exposes the shared dispatch core (tests and diagnostics).
func (c *Cluster) Core() *dispatch.Core { return c.core }

// vnow maps the engine's virtual time onto the time.Time scale the
// core's clock-injected API expects.
func (c *Cluster) vnow() time.Time {
	return time.Time{}.Add(c.eng.Now())
}

// wakeFallback is the core's last resort when no backend is available:
// wake the lowest-index live sleeper (wake-on-demand, e.g. after the
// last active backend crashed).
func (c *Cluster) wakeFallback(time.Time) (int, bool) {
	for i := range c.backends {
		if c.down[i] || !c.power.asleep[i] {
			continue
		}
		c.power.accrue(c.eng.Now())
		c.power.asleep[i] = false
		c.power.wakes++
		c.backends[i].cpu.Schedule(c.power.params.WakeLatency, nil)
		return i, true
	}
	return 0, false
}

// crash takes a backend down: its memory is lost and the core forgets
// everything about it (residency, prefetch marks, session pins).
func (c *Cluster) crash(server int) {
	c.down[server] = true
	c.core.InvalidateBackend(server)
	if c.gray.detector != nil {
		// A hard crash supersedes gray detection: clear the latency
		// window so the breaker path owns the outage and recovery starts
		// from a fresh sample set.
		c.gray.detector.Reset(server)
	}
	for file := range c.replicas {
		c.unplace(file, server)
	}
	// Drop resident objects (memory contents are lost on restart). The
	// store has no iteration API; rebuild it cold by removing every known
	// file.
	for file := range c.files {
		c.backends[server].store.Remove(file)
	}
}

// recover brings a crashed backend back with a cold cache.
func (c *Cluster) recoverServer(server int) {
	c.down[server] = false
}

// anyUp reports whether at least one backend is alive.
func (c *Cluster) anyUp() bool {
	for _, d := range c.down {
		if !d {
			return true
		}
	}
	return false
}

// --- replicate.Placer ---

// NumServers implements replicate.Placer.
func (c *Cluster) NumServers() int { return len(c.backends) }

// Holders implements replicate.Placer.
func (c *Cluster) Holders(file string) []int {
	return c.replicas[file].AppendTo(nil)
}

// Replicate implements replicate.Placer: copy the file over the internal
// network into the target's pinned memory.
func (c *Cluster) Replicate(file string, server int) {
	size, ok := c.files[file]
	if !ok || trace.IsDynamicPath(file) || c.down[server] {
		return // unknown, uncacheable or target crashed
	}
	b := c.backends[server]
	c.replicas[file] = c.replicas[file].Add(server)
	c.met.Replications++
	b.net.Schedule(c.dilate(server, perKBCost(size, c.cfg.Params.NetPerKB)), func(_, _ time.Duration) {
		// The replica may have been dropped — or the backend crashed —
		// while in transit.
		if !c.replicas[file].Has(server) || c.down[server] {
			return
		}
		evicted, stored := b.store.InsertPinned(file, size)
		c.noteEvictions(server, evicted)
		if stored {
			c.core.NoteResident(server, file)
		} else {
			c.unplace(file, server)
		}
	})
}

// Drop implements replicate.Placer.
func (c *Cluster) Drop(file string, server int) {
	c.unplace(file, server)
	if c.backends[server].store.RemovePinned(file) {
		c.noteGone(server, file)
	}
}

var _ replicate.Placer = (*Cluster)(nil)

// --- residency bookkeeping (ground truth for the core) ---

// noteGone records that a backend no longer holds file in memory.
func (c *Cluster) noteGone(server int, file string) {
	c.core.NoteGone(server, file)
	c.unplace(file, server)
}

// unplace forgets a replica placement; a file with none left leaves the
// table.
func (c *Cluster) unplace(file string, server int) {
	if set, ok := c.replicas[file]; ok {
		if set = set.Remove(server); set.Empty() {
			delete(c.replicas, file)
		} else {
			c.replicas[file] = set
		}
	}
}

// noteEvictions processes cache eviction lists.
func (c *Cluster) noteEvictions(server int, evicted []cache.Item) {
	for _, it := range evicted {
		c.noteGone(server, it.Key)
	}
}
