package experiment

import (
	"fmt"
	"slices"

	"prord/internal/trace"
)

// FrontEnds regenerates §2.1's scalability discussion (Aron et al. [4]):
// the front-end distributor becomes the bottleneck under per-request
// handoff traffic, and decentralizing it (2-4 distributors behind an L4
// switch) relieves it — at no dispatch-count savings, which is PRORD's
// complementary angle.
func (r *Runner) FrontEnds() (*Table, error) {
	t := &Table{
		ID:     "frontends",
		Title:  "Decentralized front-end (WorldCup98, elevated load)",
		Header: []string{"Policy", "Distributors"},
		Notes: []string{
			"decentralizing removes the front-end bottleneck (util drops); under LARD it floods the backends with a wider concurrent working set, collapsing locality and throughput",
			"PRORD dispatches far less often, keeps its locality and gains from every added distributor: §2.1's skepticism about [4] holds for LARD, not for PRORD",
		},
	}
	var rows []row
	for _, polName := range []string{"LARD", "PRORD"} {
		for _, nd := range []int{1, 2, 4} {
			run := cell(trace.PresetWorldCup, polName)
			// Elevate offered load so a single distributor saturates
			// under LARD's per-request handoffs.
			run.LoadScale = 3
			run.Distributors = nd
			rows = append(rows, row{[]string{polName, fmt.Sprintf("%d", nd)}, []Run{run}})
		}
	}
	return r.fill(t, rows,
		col{"Throughput", "throughput", "%.0f", at(0, throughput)},
		col{"Hit rate", "hitrate", "%.3f", at(0, hitRate)},
		col{"Max front util", "frontutil", "%.2f", at(0, func(o *outcome) float64 { return slices.Max(append([]float64{0}, o.FrontUtilization...)) })},
		col{"Mean resp (ms)", "respms", "%.2f", at(0, respMs)})
}

// Failover measures PRORD's behaviour through a backend crash and
// recovery mid-run: completion, failovers, and the response-time cost.
func (r *Runner) Failover() (*Table, error) {
	t := &Table{
		ID:     "failover",
		Title:  "Backend crash at mid-run, recovery at 75% (Synthetic, PRORD)",
		Header: []string{"Scenario", "Completed", "Failovers", "Hit rate", "Mean resp (ms)"},
	}
	for _, v := range []struct {
		scenario           string
		crashAt, recoverAt float64
	}{{"healthy", 0, 0}, {"crash", 0.5, 0}, {"crash+recover", 0.5, 0.75}} {
		run := cell(trace.PresetSynthetic, "PRORD")
		run.CrashAt, run.RecoverAt = v.crashAt, v.recoverAt
		res, err := r.run(run)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.scenario,
			fmt.Sprintf("%d/%d", res.Metrics.Completed, res.requests),
			fmt.Sprintf("%d", res.Metrics.Failovers),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.2f", respMs(res)),
		})
		t.set(v.scenario, "completed", float64(res.Metrics.Completed))
		t.set(v.scenario, "failovers", float64(res.Metrics.Failovers))
		t.set(v.scenario, "hitrate", res.HitRate)
		t.set(v.scenario, "respms", respMs(res))
	}
	t.Notes = append(t.Notes, "the crashed backend's memory is lost; requests caught in flight retry elsewhere")
	return t, nil
}
