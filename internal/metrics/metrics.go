// Package metrics collects the measurements the paper's evaluation
// reports: throughput, average response time, frequency of dispatches,
// and cache hit rates (§5.2), plus latency histograms for percentile
// reporting.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Histogram is a log-scale latency histogram: bucket i covers
// [2^i, 2^(i+1)) microseconds. Exact count, sum and max are kept alongside
// the buckets so means are exact and only percentiles are approximate.
type Histogram struct {
	buckets [40]int64 // 2^40 µs ≈ 13 days: far beyond any simulated latency
	count   int64
	sum     time.Duration
	max     time.Duration
	min     time.Duration
}

// Observe records one latency sample; negative samples count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	idx := 0
	if us > 0 {
		idx = int(math.Log2(float64(us)))
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
	}
	h.buckets[idx]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if h.count == 1 || d < h.min {
		h.min = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean latency, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the requested rank and interpolating linearly within it,
// assuming samples spread uniformly across the bucket. The estimate is
// clamped to the observed [min, max], so single-bucket distributions and
// the extreme quantiles stay exact at the edges.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Fractional rank of the requested quantile among the sorted samples.
	rank := q * float64(h.count-1)
	var before float64 // samples in earlier buckets
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		n := float64(b)
		if rank >= before+n {
			before += n
			continue
		}
		// Bucket i covers [2^i, 2^(i+1)) µs, except bucket 0 which also
		// holds the sub-microsecond samples and so starts at 0.
		lower := time.Duration(0)
		if i > 0 {
			lower = time.Duration(1<<uint(i)) * time.Microsecond
		}
		upper := time.Duration(1<<(uint(i)+1)) * time.Microsecond
		// Place the bucket's samples at the centers of n equal sub-ranges.
		f := (rank - before + 0.5) / n
		est := lower + time.Duration(f*float64(upper-lower))
		if est < h.min {
			est = h.min
		}
		if est > h.max {
			est = h.max
		}
		return est
	}
	return h.max
}

// Collector accumulates every counter the experiments report.
type Collector struct {
	// Completed counts requests fully serviced (response delivered).
	Completed int64
	// MemoryHits counts requests served from a backend's memory.
	MemoryHits int64
	// MemoryMisses counts requests that had to read the disk.
	MemoryMisses int64
	// Dispatches counts distributor->dispatcher consultations (Fig. 6's
	// "frequency of dispatches").
	Dispatches int64
	// Handoffs counts TCP handoffs performed.
	Handoffs int64
	// DirectForwards counts requests forwarded without a dispatch (the
	// PRORD fast path for embedded objects / prefetched pages).
	DirectForwards int64
	// Prefetches counts pages pulled into memory ahead of a request.
	Prefetches int64
	// PrefetchHits counts requests answered out of a prefetched copy,
	// including requests that piggybacked on an in-flight prefetch read.
	// One prefetch may serve several requests, so PrefetchAccuracy can
	// exceed 1 (uses per prefetch).
	PrefetchHits int64
	// Replications counts file copies pushed by the replication manager.
	Replications int64
	// RemoteFetches counts responses supplied from another backend's
	// memory over the internal network (back-end forwarding).
	RemoteFetches int64
	// Failovers counts requests retried on another backend after their
	// assigned backend crashed mid-service.
	Failovers int64
	// Failed counts requests dropped because no backend was alive.
	Failed int64
	// Shed counts demand requests refused by Critical-tier admission
	// control (the overload degrade ladder's last rung).
	Shed int64
	// PrefetchShed counts proactive prefetch passes suppressed while the
	// cluster sat at Elevated tier or above.
	PrefetchShed int64
	// ReplicationsShed counts replication refresh rounds skipped at
	// Elevated tier or above.
	ReplicationsShed int64
	// BytesServed totals response bytes delivered to clients.
	BytesServed int64
	// DynamicServed counts requests for generated (uncacheable) content;
	// they are neither memory hits nor misses.
	DynamicServed int64
	// Response holds per-request latency samples.
	Response Histogram
}

// HitRate returns the memory hit fraction over all cache lookups.
func (c *Collector) HitRate() float64 {
	total := c.MemoryHits + c.MemoryMisses
	if total == 0 {
		return 0
	}
	return float64(c.MemoryHits) / float64(total)
}

// Throughput returns completed requests per second over elapsed.
func (c *Collector) Throughput(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Completed) / elapsed.Seconds()
}

// PrefetchAccuracy returns prefetch uses per prefetch issued (may exceed
// 1 when one prefetched copy serves several requests).
func (c *Collector) PrefetchAccuracy() float64 {
	if c.Prefetches == 0 {
		return 0
	}
	return float64(c.PrefetchHits) / float64(c.Prefetches)
}

// DispatchesPerRequest returns the dispatcher-consultation rate.
func (c *Collector) DispatchesPerRequest() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.Dispatches) / float64(c.Completed)
}

// String summarizes the collector for logs and CLI output.
func (c *Collector) String() string {
	return fmt.Sprintf(
		"completed=%d hit-rate=%.3f dispatches=%d handoffs=%d forwards=%d prefetches=%d (acc %.2f) repl=%d mean-resp=%v",
		c.Completed, c.HitRate(), c.Dispatches, c.Handoffs, c.DirectForwards,
		c.Prefetches, c.PrefetchAccuracy(), c.Replications, c.Response.Mean())
}
