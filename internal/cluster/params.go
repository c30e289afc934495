// Package cluster is the discrete-event model of the distributor-based
// web cluster the paper simulates (Fig. 5): a front-end distributor plus
// dispatcher and n backend servers, each with a CPU, a disk, an internal
// network interface and a partitioned memory cache, serving persistent
// HTTP/1.1 connections replayed from a trace.
package cluster

import (
	"fmt"
	"time"
)

// Params are the system parameters of Table 1. The disk-latency row of the
// published table is garbled ("ms (fixed) µs per KB"); DiskFixed/DiskPerKB
// default to the LARD-paper magnitude (a miss costs ~10 ms plus transfer).
type Params struct {
	// Backends is the number of backend servers (the paper evaluates
	// 6-16).
	Backends int
	// AppMemory is each backend's demand-cache capacity in bytes
	// (Table 1: 128 MB application memory).
	AppMemory int64
	// PinnedMemory is each backend's pinned partition for prefetched and
	// replicated pages (Table 1: 72 MB, variable).
	PinnedMemory int64
	// ConnectionLatency is the client TCP setup cost per persistent
	// connection (Table 1: 150 µs).
	ConnectionLatency time.Duration
	// HandoffLatency is the cost of one TCP handoff (Table 1: 200 µs per
	// request).
	HandoffLatency time.Duration
	// NetPerKB is the internal-network transfer cost for migration,
	// replication and back-end forwarding (Table 1: 80 µs per KB).
	NetPerKB time.Duration
	// DiskFixed is the fixed seek+rotation cost of a disk read.
	DiskFixed time.Duration
	// DiskPerKB is the disk transfer cost per KB.
	DiskPerKB time.Duration
	// CPUPerRequest is the backend's fixed per-request processing cost.
	CPUPerRequest time.Duration
	// CPUPerKB is the backend's per-KB response transmission cost.
	CPUPerKB time.Duration
	// FrontPerRequest is the distributor's per-request analysis cost.
	FrontPerRequest time.Duration
	// DispatchLatency is the distributor-dispatcher consultation cost.
	DispatchLatency time.Duration
	// PrefetchQueueLimit throttles proactive disk reads: a backend skips
	// a prefetch when its disk queue already holds more than this many
	// jobs, so prefetching consumes idle disk bandwidth instead of
	// competing with demand misses. 0 disables throttling.
	PrefetchQueueLimit int
	// DynamicCPU is the backend CPU cost of generating one dynamic
	// (uncacheable) response, on top of the per-KB transmission cost.
	DynamicCPU time.Duration
}

// DefaultParams returns Table 1's parameters with the documented disk
// defaults.
func DefaultParams() Params {
	return Params{
		Backends:           8,
		AppMemory:          128 << 20,
		PinnedMemory:       72 << 20,
		ConnectionLatency:  150 * time.Microsecond,
		HandoffLatency:     200 * time.Microsecond,
		NetPerKB:           80 * time.Microsecond,
		DiskFixed:          10 * time.Millisecond,
		DiskPerKB:          100 * time.Microsecond,
		CPUPerRequest:      100 * time.Microsecond,
		CPUPerKB:           40 * time.Microsecond,
		FrontPerRequest:    15 * time.Microsecond,
		DispatchLatency:    20 * time.Microsecond,
		PrefetchQueueLimit: 3,
		DynamicCPU:         4 * time.Millisecond,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Backends < 1 {
		return fmt.Errorf("cluster: Backends must be >= 1, got %d", p.Backends)
	}
	if p.AppMemory < 0 || p.PinnedMemory < 0 {
		return fmt.Errorf("cluster: negative memory capacity")
	}
	for _, d := range []time.Duration{
		p.ConnectionLatency, p.HandoffLatency, p.NetPerKB, p.DiskFixed,
		p.DiskPerKB, p.CPUPerRequest, p.CPUPerKB, p.FrontPerRequest,
		p.DispatchLatency,
	} {
		if d < 0 {
			return fmt.Errorf("cluster: negative latency parameter")
		}
	}
	return nil
}

// perKBCost converts a byte size and per-KB rate into a duration.
func perKBCost(size int64, perKB time.Duration) time.Duration {
	if size <= 0 || perKB <= 0 {
		return 0
	}
	return time.Duration(size) * perKB / 1024
}

// Features toggles PRORD's three enhancements independently, enabling the
// Fig. 9 ablation (LARD-bundle, LARD-distribution, LARD-prefetch-nav).
type Features struct {
	// Bundle enables the embedded-object forward module at the front-end
	// and bundle prefetching at the backends (§3.2, §4.2).
	Bundle bool
	// Replication enables Algorithm 3's popularity-driven replication
	// ("LARD-distribution" in Fig. 9).
	Replication bool
	// NavPrefetch enables navigation-pattern prefetching via the n-order
	// dependency graph (Algorithms 1-2, "LARD-prefetch-nav").
	NavPrefetch bool
}

// AllFeatures is the full PRORD feature set as evaluated in the paper
// (bundle forwarding, replication, navigation prefetch).
func AllFeatures() Features {
	return Features{Bundle: true, Replication: true, NavPrefetch: true}
}

// Any reports whether any proactive feature is enabled; with none, the
// pinned partition is merged into the demand cache so baselines get the
// same total memory.
func (f Features) Any() bool {
	return f.Bundle || f.Replication || f.NavPrefetch
}
