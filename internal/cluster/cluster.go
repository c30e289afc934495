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
	// UseGDSF selects GDSF instead of LRU for the demand caches.
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
	// Gray enables the core's gray-failure layer, driven by virtual
	// time: the relative slow-backend detector as the degraded mask,
	// plus optional hedged backup requests. Nil disables the layer
	// (injected gray failures then hit the cluster with no defense).
	Gray *dispatch.GrayConfig
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

// backend is one backend server: CPU, disk, internal NIC and memory;
// it handles the replica copies its internal link carries.
type backend struct {
	c     *Cluster
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
// disks, the internal network and caches — and reports
// ground-truth residency back. Build one with New, run a trace with
// Run; a Cluster is single-use.
type Cluster struct {
	cfg      Config
	eng      *sim.Engine
	backends []*backend
	fronts   []*sim.FCFS

	core    *dispatch.Core
	replmgr *replicate.Manager

	// replicas tracks Algorithm 3's placements by rank row; the
	// replication manager owns placement, the core only routes to them
	// through the residency it is told about.
	replicas []dispatch.ServerSet
	// waiters holds demand requests blocked on an in-flight prefetch of
	// the same file at the same backend, so demand traffic piggybacks on
	// the prefetch disk read instead of issuing a duplicate one.
	waiters map[waiterKey][]*flight
	// spareWaiters holds emptied waiters lists for reuse; batches and
	// plan are the reused records of prefetch reads and proactive
	// passes.
	spareWaiters [][]*flight
	batches      pool[batch]
	plan         dispatch.Plan

	met       metrics.Collector
	tr        *trace.Trace // the trace Run is replaying
	files     map[string]int64
	gray      *grayState    // injected gray faults
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
	if cfg.ReplicationInterval <= 0 {
		cfg.ReplicationInterval = 5 * time.Second
	}
	c := &Cluster{
		cfg:     cfg,
		eng:     &sim.Engine{},
		waiters: make(map[waiterKey][]*flight),
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
			store = cache.NewPartitioned(cache.NewGDSF(total-maxPinned), cache.NewLRU(maxPinned))
		} else {
			// LRU mode models Table 1's "pinned memory (variable)": one
			// shared pool whose pinned bytes are capped but whose free
			// pinned space serves demand.
			store = cache.NewPinning(total, maxPinned)
		}
		c.backends = append(c.backends, &backend{
			c:     c,
			id:    i,
			cpu:   sim.NewFCFS(c.eng),
			disk:  sim.NewFCFS(c.eng),
			net:   sim.NewFCFS(c.eng),
			store: store,
		})
	}
	c.down = make([]bool, cfg.Params.Backends)
	c.gray = newGrayState(cfg.Params.Backends)
	if err := ValidateFailures(cfg.Failures, cfg.Params.Backends); err != nil {
		return nil, err
	}
	if cfg.Features.Replication {
		c.replmgr = replicate.NewManager(cfg.Miner.Ranker, cfg.ReplicateConfig)
	}

	dcfg := dispatch.Config{
		Backends: cfg.Params.Backends,
		Policy:   cfg.Policy,
		Miner:    cfg.Miner,
		Features: dispatch.Features{
			Bundle:      cfg.Features.Bundle,
			NavPrefetch: cfg.Features.NavPrefetch,
		},
		// The simulator reports ground-truth residency from its modeled
		// caches; the core never guesses locality.
		Exact: true,
		// Replayed sessions are closed explicitly when their script ends;
		// the idle-eviction valve must never fire mid-trace.
		MaxSessions: 1 << 30,
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
		Gray:     cfg.Gray,
		Recorder: cfg.Recorder,
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

// unavailable reports whether a backend can accept new work. A
// flapping backend's down half-cycles count — the outage is visible —
// while the other gray modes (slow, errrate) deliberately do not: the
// backend looks available, and only the detector's degraded mask can
// steer work away.
func (c *Cluster) unavailable(i int) bool {
	return c.down[i] || c.gray.softDown[i]
}

// crash takes a backend down: its memory is lost and the core forgets
// everything about it (residency, prefetch marks, session pins, its
// gray detector window).
func (c *Cluster) crash(server int) {
	c.down[server] = true
	c.core.InvalidateBackend(server)
	for row, set := range c.replicas {
		c.replicas[row] = set.Remove(server)
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

// --- replicate.Placer ---

// NumServers implements replicate.Placer.
func (c *Cluster) NumServers() int { return len(c.backends) }

// Holders implements replicate.Placer.
func (c *Cluster) Holders(row int, _ string, dst []int) []int {
	if row < len(c.replicas) {
		dst = c.replicas[row].AppendTo(dst)
	}
	return dst
}

// Replicate implements replicate.Placer: copy the file over the internal
// network into the target's pinned memory. The copy is an event on the
// target's link whose op is the rank row, so it needs no record.
func (c *Cluster) Replicate(row int, file string, server int) {
	size, ok := c.files[file]
	if !ok || trace.IsDynamicPath(file) || c.down[server] {
		return // unknown, uncacheable or target crashed
	}
	if row >= len(c.replicas) {
		c.replicas = append(c.replicas, make([]dispatch.ServerSet, row+1-len(c.replicas))...)
	}
	c.replicas[row] = c.replicas[row].Add(server)
	c.met.Replications++
	b := c.backends[server]
	b.net.ScheduleOp(c.dilate(server, perKBCost(size, c.cfg.Params.NetPerKB)), b, row)
}

// Handle implements sim.Handler: the replica copy of rank row row
// arrived over the backend's internal link.
func (b *backend) Handle(row int) {
	c, server := b.c, b.id
	// The replica may have been dropped — or the backend crashed —
	// while in transit.
	if !c.replicas[row].Has(server) || c.down[server] {
		return
	}
	file := c.cfg.Miner.Ranker.Path(row)
	evicted, stored := b.store.InsertPinned(file, c.files[file])
	c.noteEvictions(server, evicted)
	if stored {
		c.core.NoteResident(server, file)
	} else {
		c.replicas[row] = c.replicas[row].Remove(server)
	}
}

// Drop implements replicate.Placer.
func (c *Cluster) Drop(row int, file string, server int) {
	c.replicas[row] = c.replicas[row].Remove(server)
	if c.backends[server].store.RemovePinned(file) {
		c.noteGone(server, file)
	}
}

var _ replicate.Placer = (*Cluster)(nil)

// --- residency bookkeeping (ground truth for the core) ---

// noteGone records that a backend no longer holds file in memory, and
// forgets a replica placement of it there.
func (c *Cluster) noteGone(server int, file string) {
	c.core.NoteGone(server, file)
	if len(c.replicas) == 0 {
		return // nothing placed, or no replication manager
	}
	if row, ok := c.cfg.Miner.Ranker.Row(file); ok && row < len(c.replicas) {
		c.replicas[row] = c.replicas[row].Remove(server)
	}
}

// noteEvictions processes cache eviction lists.
func (c *Cluster) noteEvictions(server int, evicted []cache.Item) {
	for _, it := range evicted {
		c.noteGone(server, it.Key)
	}
}
