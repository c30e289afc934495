package experiment

import (
	"fmt"
	"time"

	"prord/internal/cluster"
	"prord/internal/policy"
	"prord/internal/trace"
)

// Power regenerates the PARD angle embedded in Table 1 (power rows: 100%
// active / 5% hibernation): what power-aware operation costs and saves
// under each distribution policy, at a load where the cluster is
// over-provisioned.
func (r *Runner) Power() (*Table, error) {
	t := &Table{
		ID:     "power",
		Title:  "Power-managed operation (Synthetic, Table 1 power parameters)",
		Header: []string{"Policy", "Throughput", "Mean resp (ms)", "Avg power", "Wakes", "Sleeps"},
	}
	for _, polName := range []string{"WRR", "LARD", "PRORD"} {
		for _, managed := range []bool{false, true} {
			eval, miner, err := r.workload(trace.PresetSynthetic)
			if err != nil {
				return nil, err
			}
			pol, err := policy.ByName(polName, r.opt.Backends, policy.Thresholds{})
			if err != nil {
				return nil, err
			}
			feats := cluster.Features{}
			if polName == "PRORD" {
				feats = cluster.AllFeatures()
			}
			cfg := cluster.Config{
				Params:   r.params(eval.TotalFileBytes(), r.opt.Backends, r.opt.MemoryFraction),
				Policy:   pol,
				Features: feats,
				Miner:    miner,
			}
			if managed {
				cfg.Power = cluster.PowerParams{
					Enabled:  true,
					Interval: time.Duration(float64(time.Second) / r.opt.LoadFactor * 10),
				}
			}
			cl, err := cluster.New(cfg)
			if err != nil {
				return nil, err
			}
			res, err := r.replay(cl, eval)
			if err != nil {
				return nil, err
			}
			label := polName
			if managed {
				label += "+power"
			}
			t.Rows = append(t.Rows, []string{
				label,
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.2f", float64(res.MeanResponse)/float64(time.Millisecond)),
				fmt.Sprintf("%.3f", res.AvgPower),
				fmt.Sprintf("%d", res.Wakes),
				fmt.Sprintf("%d", res.Sleeps),
			})
			t.set(label, "throughput", res.Throughput)
			t.set(label, "power", res.AvgPower)
			t.set(label, "respms", float64(res.MeanResponse)/float64(time.Millisecond))
		}
	}
	t.Notes = append(t.Notes, "power rows use Table 1's 100%/5% active/hibernation draws; savings depend on offered load vs capacity")
	return t, nil
}

// FrontEnds regenerates §2.1's scalability discussion (Aron et al. [4]):
// the front-end distributor becomes the bottleneck under per-request
// handoff traffic, and decentralizing it (2-4 distributors behind an L4
// switch) relieves it — at no dispatch-count savings, which is PRORD's
// complementary angle.
func (r *Runner) FrontEnds() (*Table, error) {
	t := &Table{
		ID:     "frontends",
		Title:  "Decentralized front-end (WorldCup98, elevated load)",
		Header: []string{"Policy", "Distributors", "Throughput", "Hit rate", "Max front util", "Mean resp (ms)"},
	}
	// Elevate offered load so a single distributor saturates under LARD's
	// per-request handoffs.
	opt := r.opt
	opt.LoadFactor = r.opt.LoadFactor * 3
	rr := NewRunner(opt)
	for _, polName := range []string{"LARD", "PRORD"} {
		for _, nd := range []int{1, 2, 4} {
			eval, miner, err := rr.workload(trace.PresetWorldCup)
			if err != nil {
				return nil, err
			}
			pol, err := policy.ByName(polName, rr.opt.Backends, policy.Thresholds{})
			if err != nil {
				return nil, err
			}
			feats := cluster.Features{}
			if polName == "PRORD" {
				feats = cluster.AllFeatures()
			}
			cl, err := cluster.New(cluster.Config{
				Params:       rr.params(eval.TotalFileBytes(), rr.opt.Backends, rr.opt.MemoryFraction),
				Policy:       pol,
				Features:     feats,
				Miner:        miner,
				Distributors: nd,
			})
			if err != nil {
				return nil, err
			}
			res, err := r.replay(cl, eval)
			if err != nil {
				return nil, err
			}
			maxUtil := 0.0
			for _, u := range res.FrontUtilization {
				if u > maxUtil {
					maxUtil = u
				}
			}
			label := fmt.Sprintf("%s/%d", polName, nd)
			t.Rows = append(t.Rows, []string{
				polName,
				fmt.Sprintf("%d", nd),
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.3f", res.HitRate),
				fmt.Sprintf("%.2f", maxUtil),
				fmt.Sprintf("%.2f", float64(res.MeanResponse)/float64(time.Millisecond)),
			})
			t.set(label, "throughput", res.Throughput)
			t.set(label, "frontutil", maxUtil)
		}
	}
	t.Notes = append(t.Notes,
		"decentralizing removes the front-end bottleneck (util drops) but floods the backends with a wider concurrent working set, collapsing locality",
		"the result supports §2.1's skepticism about [4]: parallel distributors are not a free win; PRORD attacks the same bottleneck by eliminating dispatches instead")
	return t, nil
}

// Failover measures PRORD's behaviour through a backend crash and
// recovery mid-run: completion, failovers, and the response-time cost.
func (r *Runner) Failover() (*Table, error) {
	t := &Table{
		ID:     "failover",
		Title:  "Backend crash at mid-run, recovery at 75% (Synthetic, PRORD)",
		Header: []string{"Scenario", "Completed", "Failovers", "Hit rate", "Mean resp (ms)"},
	}
	for _, scenario := range []string{"healthy", "crash", "crash+recover"} {
		eval, miner, err := r.workload(trace.PresetSynthetic)
		if err != nil {
			return nil, err
		}
		cfg := cluster.Config{
			Params:   r.params(eval.TotalFileBytes(), r.opt.Backends, r.opt.MemoryFraction),
			Policy:   policy.NewPRORD(policy.Thresholds{}),
			Features: cluster.AllFeatures(),
			Miner:    miner,
		}
		mid := eval.Requests[len(eval.Requests)/2].Time
		late := eval.Requests[3*len(eval.Requests)/4].Time
		switch scenario {
		case "crash":
			cfg.Failures = []cluster.Failure{{Server: 0, At: mid}}
		case "crash+recover":
			cfg.Failures = []cluster.Failure{{Server: 0, At: mid, RecoverAt: late}}
		}
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.replay(cl, eval)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			scenario,
			fmt.Sprintf("%d/%d", res.Metrics.Completed, len(eval.Requests)),
			fmt.Sprintf("%d", res.Metrics.Failovers),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.2f", float64(res.MeanResponse)/float64(time.Millisecond)),
		})
		t.set(scenario, "completed", float64(res.Metrics.Completed))
		t.set(scenario, "failovers", float64(res.Metrics.Failovers))
		t.set(scenario, "hitrate", res.HitRate)
		t.set(scenario, "respms", float64(res.MeanResponse)/float64(time.Millisecond))
	}
	t.Notes = append(t.Notes, "the crashed backend's memory is lost; requests caught in flight retry elsewhere")
	return t, nil
}
