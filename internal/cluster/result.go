package cluster

import (
	"fmt"
	"time"

	"prord/internal/autoscale"
	"prord/internal/metrics"
	"prord/internal/overload"
	"prord/internal/trace"
)

// ServerStats summarizes one backend after a run.
type ServerStats struct {
	Served          int64
	CPUUtilization  float64
	DiskUtilization float64
	CacheBytes      int64
	CacheObjects    int
}

// Result is the measured outcome of one simulation run.
type Result struct {
	// PolicyName identifies the distribution policy.
	PolicyName string
	// TraceName identifies the workload.
	TraceName string
	// Metrics are the raw counters and latency histogram.
	Metrics metrics.Collector
	// Makespan is the span from first request issue to last completion.
	Makespan time.Duration
	// Events is how many simulator events the run executed
	// (sim.Engine.Executed): the replay's own cost in the unit every
	// event-loop optimisation moves, where it is about three a request.
	Events uint64
	// Throughput is completed requests per second of makespan — "the
	// summation of the number of requests processed by each of the
	// backend servers" per unit time (Fig. 7's metric).
	Throughput float64
	// MeanResponse is the average client-perceived response time.
	MeanResponse time.Duration
	// HitRate is the backend memory hit fraction.
	HitRate float64
	// AvgPower is the mean cluster power draw as a fraction of the
	// all-active draw (1.0 without power management).
	AvgPower float64
	// Wakes and Sleeps count power-state transitions.
	Wakes, Sleeps int64
	// Servers holds per-backend statistics.
	Servers []ServerStats
	// FrontUtilization is each front-end distributor's busy fraction; a
	// value near 1 means the front-end was the bottleneck (§2.1's
	// motivation for decentralized distribution).
	FrontUtilization []float64
	// TierTransitions is the decision core's degrade-ladder history in
	// virtual time (nil when Config.Overload is nil). Deterministic for a
	// given trace and configuration.
	TierTransitions []overload.Transition
	// Autoscale summarizes the elastic pool after the run (nil when
	// Config.Autoscale is nil).
	Autoscale *AutoscaleResult
	// Gray summarizes the gray-failure resilience layer (nil when
	// Config.Gray is nil).
	Gray *GrayResult
	// Fleet summarizes the multi-distributor fleet (nil when Config.Fleet
	// is off).
	Fleet *FleetResult
}

// FleetResult is the partitioned-ownership fleet's run outcome.
type FleetResult struct {
	// Replicas is the distributor fleet size (ring membership).
	Replicas int
	// Forwards counts requests whose L4-pinned ingress distributor was
	// not the session's ring owner and paid the forward hop.
	Forwards int64
	// ForwardRate is Forwards over completed requests. With k replicas
	// and hash-pinned ingress it converges to (k-1)/k; a lower rate
	// means ingress pinning and ring ownership agree more often.
	ForwardRate float64
}

// AutoscaleResult is the elastic pool's run outcome.
type AutoscaleResult struct {
	// Joins and Drains count pool membership changes.
	Joins, Drains int64
	// SessionsRebooked counts sessions unpinned by completed drains
	// (each re-bound through the normal path on its next request).
	SessionsRebooked int64
	// FinalSize is the pool size when the run ended.
	FinalSize int
	// ScaleUpLatencies are the organic controller's join decision
	// latencies (how long Saturated persisted before each join); empty
	// for scripted schedules.
	ScaleUpLatencies []time.Duration
	// Events is the pool's lifecycle transition log on virtual time.
	Events []autoscale.Event
	// JoinWindows reports each join's first-window hit rate at the
	// joined backend (the warm-vs-cold bench signal).
	JoinWindows []JoinWindowStats
}

// JoinWindowStats is one join's first-window outcome.
type JoinWindowStats struct {
	Server       int
	Start        time.Duration
	Hits, Misses int64
	HitRate      float64
}

// result collects the run outcome, folding the dispatch core's decision
// counters into the substrate metrics the cluster gathered itself.
func (c *Cluster) result(tr *trace.Trace) *Result {
	cs := c.core.Stats()
	c.met.Dispatches = cs.Dispatches
	c.met.DirectForwards = cs.DirectForwards
	c.met.Handoffs = cs.Handoffs
	c.met.Prefetches = cs.Prefetches
	c.met.PrefetchShed = cs.PrefetchShed
	c.met.ReplicationsShed = cs.ReplicationsShed
	c.met.Shed = cs.Shed
	makespan := c.lastDone - c.firstArr
	res := &Result{
		PolicyName:   c.cfg.Policy.Name(),
		TraceName:    tr.Name,
		Metrics:      c.met,
		Makespan:     makespan,
		Events:       c.eng.Executed(),
		Throughput:   c.met.Throughput(makespan),
		MeanResponse: c.met.Response.Mean(),
		HitRate:      c.met.HitRate(),
		AvgPower:     1,
	}
	if c.power != nil {
		res.AvgPower = c.power.avgPower(c.lastDone)
		res.Wakes = c.power.wakes
		res.Sleeps = c.power.sleeps
	}
	for _, f := range c.fronts {
		res.FrontUtilization = append(res.FrontUtilization, f.Utilization())
	}
	res.TierTransitions = c.core.TierTransitions()
	if c.pool != nil {
		joins, drains, rebooked := c.pool.Counters()
		ar := &AutoscaleResult{
			Joins:            joins,
			Drains:           drains,
			SessionsRebooked: rebooked,
			FinalSize:        c.pool.Size(),
			Events:           c.pool.Events(),
		}
		if c.actrl != nil {
			ar.ScaleUpLatencies = c.actrl.ScaleUpLatencies()
		}
		for _, w := range c.joinWindows {
			jw := JoinWindowStats{Server: w.server, Start: w.start, Hits: w.hits, Misses: w.misses}
			if total := w.hits + w.misses; total > 0 {
				jw.HitRate = float64(w.hits) / float64(total)
			}
			ar.JoinWindows = append(ar.JoinWindows, jw)
		}
		res.Autoscale = ar
	}
	if d := c.gray.detector; d != nil {
		res.Gray = &GrayResult{
			Ejections:    d.Ejections(),
			Recoveries:   d.Recoveries(),
			GrayRebinds:  cs.GrayRebinds,
			HedgesFired:  cs.HedgesFired,
			HedgeWins:    cs.HedgeWins,
			HedgeCancels: c.gray.hedgeCancels,
			Backends:     d.Snapshot(),
		}
	}
	if c.ring != nil {
		fr := &FleetResult{
			Replicas: c.cfg.Distributors,
			Forwards: c.met.FleetForwards,
		}
		if c.met.Completed > 0 {
			fr.ForwardRate = float64(fr.Forwards) / float64(c.met.Completed)
		}
		res.Fleet = fr
	}
	for _, b := range c.backends {
		res.Servers = append(res.Servers, ServerStats{
			Served:          b.served,
			CPUUtilization:  b.cpu.Utilization(),
			DiskUtilization: b.disk.Utilization(),
			CacheBytes:      b.store.Bytes(),
			CacheObjects:    b.store.Len(),
		})
	}
	return res
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%-15s %-12s thr=%8.1f req/s  resp=%9v  hit=%.3f  dispatches=%d  handoffs=%d",
		r.PolicyName, r.TraceName, r.Throughput, r.MeanResponse, r.HitRate,
		r.Metrics.Dispatches, r.Metrics.Handoffs)
}

// TotalServed sums per-backend served counts (equals Metrics.Completed;
// kept separate as a consistency check mirroring the paper's definition).
func (r *Result) TotalServed() int64 {
	var total int64
	for _, s := range r.Servers {
		total += s.Served
	}
	return total
}
