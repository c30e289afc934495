package cluster

import (
	"fmt"
	"time"

	"prord/internal/dispatch"
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
	// Gray summarizes the gray-failure resilience layer (nil when
	// Config.Gray is nil).
	Gray *dispatch.GrayStats
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
	res.Gray = c.core.Gray()
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
