package loadgen

import (
	"fmt"
	"time"

	"prord/internal/cluster"
	"prord/internal/metrics"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/trace"
)

// simCompare plays the harness's workload through the discrete-event
// cluster model with parameters mapped from the live demo cluster, and
// returns the simulated headline metrics plus live-vs-sim deltas. The
// simulation is fully deterministic: its block of the artifact is
// byte-identical across runs with the same seed and configuration.
//
// The comparison is a sanity check, not an identity: the simulator
// models dedicated hardware (Table 1 CPU/network costs) while the live
// cluster shares one machine's scheduler, so moderate deltas are
// expected. Large ones flag a regression in either implementation.
func (h *Harness) simCompare(polName string, live *metrics.BenchRun) (*metrics.SimComparison, error) {
	pol, err := policy.ByName(polName, h.cfg.Backends, policy.Thresholds{})
	if err != nil {
		return nil, err
	}
	params := cluster.DefaultParams()
	params.Backends = h.cfg.Backends
	// Mirror the demo backends: one flat cache of CacheBytes (split
	// 64/36 demand/pinned like Table 1's 128/72 MB proportions) and a
	// fixed miss cost with no per-KB disk transfer component.
	params.AppMemory = h.cfg.CacheBytes * 64 / 100
	params.PinnedMemory = h.cfg.CacheBytes - params.AppMemory
	params.DiskFixed = h.cfg.MissLatency
	params.DiskPerKB = 0

	var feats cluster.Features
	var miner *mining.Miner
	if polName == "PRORD" {
		// The live front-end's PRORD wiring: bundle classification plus
		// navigation prefetch. No replication — the demo backends
		// cannot copy files between themselves.
		feats = cluster.Features{Bundle: true, NavPrefetch: true}
		miner = h.freshMiner()
	}
	cl, err := cluster.New(cluster.Config{
		Params:   params,
		Policy:   pol,
		Features: feats,
		Miner:    miner,
		Failures: h.cfg.Faults,
		Retries:  h.cfg.FrontRetries,
		Overload: h.cfg.Overload,
		Gray:     h.cfg.Gray, // the same core layer on virtual time
	})
	if err != nil {
		return nil, err
	}
	res, err := cl.Run(h.simTrace())
	if err != nil {
		return nil, err
	}
	sim := &metrics.SimComparison{
		ThroughputRPS:    metrics.Round(res.Throughput, 1),
		MeanUS:           res.MeanResponse.Microseconds(),
		HitRate:          metrics.Round(res.HitRate, 3),
		Failovers:        res.Metrics.Failovers,
		Shed:             res.Metrics.Shed,
		PrefetchShed:     res.Metrics.PrefetchShed,
		ReplicationsShed: res.Metrics.ReplicationsShed,
		TierTransitions:  tierTransitions(res.TierTransitions),
	}
	sim.ThroughputDeltaPct = metrics.DeltaPct(live.ThroughputRPS, sim.ThroughputRPS)
	sim.MeanLatencyDeltaPct = metrics.DeltaPct(float64(live.Latency.MeanNS/1000), float64(sim.MeanUS))
	sim.ShedDeltaPct = metrics.DeltaPct(float64(live.Shed), float64(sim.Shed))
	return sim, nil
}

// simTrace rebuilds the harness's offered workload as a simulator
// trace. Open mode is faithful: the simulator replays the exact arrival
// schedule the live workers issue, one session per worker connection.
// Closed mode is approximate — live pacing is completion-driven — so the
// replayed sessions keep their trace arrival times, compressed to span
// the live measurement window.
func (h *Harness) simTrace() *trace.Trace {
	out := &trace.Trace{Name: "loadgen/" + h.cfg.Mode.String(), Files: h.eval.Files}
	switch h.cfg.Mode {
	case OpenLoop:
		for w, sched := range h.open {
			for _, a := range sched {
				r := h.eval.Requests[a.idx]
				r.Time = a.at
				r.Session = w
				r.Client = fmt.Sprintf("worker-%d", w)
				out.Requests = append(out.Requests, r)
			}
		}
	case ClosedLoop:
		var first, last time.Duration = -1, 0
		for _, s := range h.scripts {
			for _, idx := range s.Reqs {
				t := h.eval.Requests[idx].Time
				if first < 0 || t < first {
					first = t
				}
				if t > last {
					last = t
				}
			}
		}
		span := last - first
		window := h.cfg.Duration - h.cfg.Warmup
		for _, s := range h.scripts {
			for _, idx := range s.Reqs {
				r := h.eval.Requests[idx]
				if span > 0 {
					r.Time = time.Duration(float64(r.Time-first) * float64(window) / float64(span))
				} else {
					r.Time = 0
				}
				out.Requests = append(out.Requests, r)
			}
		}
	}
	out.SortByTime()
	return out
}
