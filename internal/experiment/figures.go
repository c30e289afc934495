package experiment

import (
	"fmt"
	"time"

	"prord/internal/cluster"
	"prord/internal/trace"
)

// Table1 renders the system parameters actually used (the paper's
// Table 1), including the documented substitution for the garbled disk
// row.
func (r *Runner) Table1() (*Table, error) {
	p := cluster.DefaultParams()
	t := &Table{
		ID:     "table1",
		Title:  "System parameters",
		Header: []string{"Parameter", "Value"},
	}
	row := func(name, value string) {
		t.Rows = append(t.Rows, []string{name, value})
	}
	row("Backend servers", fmt.Sprintf("%d (experiments sweep 6-16)", r.opt.Backends))
	row("Application memory", fmt.Sprintf("%d MB", p.AppMemory>>20))
	row("Pinned memory", fmt.Sprintf("%d MB (variable)", p.PinnedMemory>>20))
	row("Connection latency", p.ConnectionLatency.String())
	row("TCP handoff latency", p.HandoffLatency.String()+" per request")
	row("Data transmission (migration)", p.NetPerKB.String()+" per KB")
	row("Disk latency", fmt.Sprintf("%v fixed + %v per KB (substituted; Table 1 row garbled)", p.DiskFixed, p.DiskPerKB))
	row("Backend CPU", fmt.Sprintf("%v per request + %v per KB", p.CPUPerRequest, p.CPUPerKB))
	row("Distributor", fmt.Sprintf("%v per request + %v per dispatch", p.FrontPerRequest, p.DispatchLatency))
	t.Notes = append(t.Notes, "power parameters (Table 1's ON/OFF/hibernation row) belong to PARD and are outside PRORD's evaluation")
	return t, nil
}

// Fig6 regenerates "Frequency of Dispatches": dispatcher consultations of
// LARD vs PRORD on each trace.
func (r *Runner) Fig6() (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Frequency of dispatches (LARD vs PRORD)",
		Header: []string{"Trace", "Requests", "LARD", "PRORD", "Reduction"},
	}
	for _, p := range presets() {
		lard, err := r.Execute(Run{Preset: p, Policy: "LARD"})
		if err != nil {
			return nil, err
		}
		prord, err := r.Execute(Run{Preset: p, Policy: "PRORD", Features: cluster.AllFeatures()})
		if err != nil {
			return nil, err
		}
		reduction := 0.0
		if lard.Metrics.Dispatches > 0 {
			reduction = 1 - float64(prord.Metrics.Dispatches)/float64(lard.Metrics.Dispatches)
		}
		t.Rows = append(t.Rows, []string{
			p.String(),
			fmt.Sprintf("%d", lard.Metrics.Completed),
			fmt.Sprintf("%d", lard.Metrics.Dispatches),
			fmt.Sprintf("%d", prord.Metrics.Dispatches),
			fmt.Sprintf("%.1f%%", 100*reduction),
		})
		t.set(p.String(), "LARD", float64(lard.Metrics.Dispatches))
		t.set(p.String(), "PRORD", float64(prord.Metrics.Dispatches))
	}
	return t, nil
}

// fig7Policies is the comparison set of Fig. 7.
func fig7Policies() []string {
	return []string{"WRR", "LARD", "Ext-LARD-PHTTP", "PRORD"}
}

// Fig7 regenerates "Throughput Comparison" across WRR, LARD,
// Ext-LARD-PHTTP and PRORD on each trace.
func (r *Runner) Fig7() (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Throughput comparison (requests/second)",
		Header: append([]string{"Trace"}, fig7Policies()...),
	}
	t.Header = append(t.Header, "PRORD vs LARD")
	for _, p := range presets() {
		row := []string{p.String()}
		var lardThr, prordThr float64
		for _, polName := range fig7Policies() {
			res, err := r.Execute(Run{Preset: p, Policy: polName, Features: featuresFor(polName)})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", res.Throughput))
			t.set(p.String(), polName, res.Throughput)
			switch polName {
			case "LARD":
				lardThr = res.Throughput
			case "PRORD":
				prordThr = res.Throughput
			}
		}
		gain := 0.0
		if lardThr > 0 {
			gain = 100 * (prordThr - lardThr) / lardThr
		}
		row = append(row, fmt.Sprintf("%+.1f%%", gain))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper reports PRORD 10-45% over LARD; shapes, not absolute req/s, are comparable")
	return t, nil
}

// Fig8MemoryPoints are the memory fractions Fig. 8 sweeps.
var Fig8MemoryPoints = []float64{0.10, 0.20, 0.30, 0.50, 0.75, 1.0}

// Fig8 regenerates "Throughput varying data amount in memory": LARD vs
// PRORD as the fraction of the site fitting in cluster memory grows.
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Throughput vs fraction of site data in backend memory (Synthetic)",
		Header: []string{"Memory fraction", "LARD", "PRORD", "PRORD/LARD"},
	}
	for _, frac := range Fig8MemoryPoints {
		lard, err := r.Execute(Run{Preset: trace.PresetSynthetic, Policy: "LARD", MemoryFraction: frac})
		if err != nil {
			return nil, err
		}
		prord, err := r.Execute(Run{Preset: trace.PresetSynthetic, Policy: "PRORD",
			Features: cluster.AllFeatures(), MemoryFraction: frac})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.0f%%", 100*frac)
		ratio := 0.0
		if lard.Throughput > 0 {
			ratio = prord.Throughput / lard.Throughput
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.0f", lard.Throughput),
			fmt.Sprintf("%.0f", prord.Throughput),
			fmt.Sprintf("%.2fx", ratio),
		})
		t.set(label, "LARD", lard.Throughput)
		t.set(label, "PRORD", prord.Throughput)
	}
	t.Notes = append(t.Notes, "the paper's claim: PRORD preserves locality better than LARD as memory shrinks")
	return t, nil
}

// fig9Variants maps the Fig. 9 row labels to policy + feature selections.
// The enhancements layer onto the LARD baseline exactly as §5.2 describes;
// PRORD is the combination (with its proactive routing policy).
func fig9Variants() []struct {
	Label    string
	Policy   string
	Features cluster.Features
} {
	return []struct {
		Label    string
		Policy   string
		Features cluster.Features
	}{
		{"LARD", "LARD", cluster.Features{}},
		{"LARD-bundle", "LARD", cluster.Features{Bundle: true}},
		{"LARD-distribution", "LARD", cluster.Features{Replication: true}},
		{"LARD-prefetch-nav", "LARD", cluster.Features{NavPrefetch: true}},
		{"LARD-prefetch-group*", "LARD", cluster.Features{GroupPrefetch: true}},
		{"PRORD", "PRORD", cluster.AllFeatures()},
	}
}

// Fig9 regenerates "Throughput Comparison for Individual Enhancements
// with CS-Trace". The Replicas and Prefetches columns show whether each
// row's mechanism fired at all: a row whose count is 0 is LARD run
// again, not a measured +0.0%.
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Individual enhancements on CS-Trace (throughput, hit rate, mechanism counts)",
		Header: []string{"Variant", "Throughput", "Hit rate", "vs LARD", "Replicas", "Prefetches"},
	}
	var base float64
	for _, v := range fig9Variants() {
		res, err := r.Execute(Run{Preset: trace.PresetCS, Policy: v.Policy, Features: v.Features})
		if err != nil {
			return nil, err
		}
		if v.Label == "LARD" {
			base = res.Throughput
		}
		gain := 0.0
		if base > 0 {
			gain = 100 * (res.Throughput - base) / base
		}
		t.Rows = append(t.Rows, []string{
			v.Label,
			fmt.Sprintf("%.0f", res.Throughput),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%+.1f%%", gain),
			fmt.Sprintf("%d", res.Metrics.Replications),
			fmt.Sprintf("%d", res.Metrics.Prefetches),
		})
		t.set(v.Label, "throughput", res.Throughput)
		t.set(v.Label, "hitrate", res.HitRate)
		t.set(v.Label, "replicas", float64(res.Metrics.Replications))
		t.set(v.Label, "prefetches", float64(res.Metrics.Prefetches))
	}
	t.Notes = append(t.Notes, "* LARD-prefetch-group is this reproduction's extension (§4.1's category-driven prefetching), not a paper row")
	return t, nil
}

// ScaleBackendCounts is the backend sweep of the §5.1 consistency claim.
var ScaleBackendCounts = []int{6, 8, 12, 16}

// Scale regenerates the §5.1 claim that results are consistent with 6-16
// backends: the PRORD/LARD throughput ratio at each cluster size.
func (r *Runner) Scale() (*Table, error) {
	t := &Table{
		ID:     "scale",
		Title:  "PRORD vs LARD across cluster sizes (Synthetic)",
		Header: []string{"Backends", "LARD", "PRORD", "PRORD/LARD"},
	}
	for _, n := range ScaleBackendCounts {
		lard, err := r.Execute(Run{Preset: trace.PresetSynthetic, Policy: "LARD", Backends: n})
		if err != nil {
			return nil, err
		}
		prord, err := r.Execute(Run{Preset: trace.PresetSynthetic, Policy: "PRORD",
			Features: cluster.AllFeatures(), Backends: n})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", n)
		ratio := 0.0
		if lard.Throughput > 0 {
			ratio = prord.Throughput / lard.Throughput
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.0f", lard.Throughput),
			fmt.Sprintf("%.0f", prord.Throughput),
			fmt.Sprintf("%.2fx", ratio),
		})
		t.set(label, "LARD", lard.Throughput)
		t.set(label, "PRORD", prord.Throughput)
		t.set(label, "ratio", ratio)
	}
	return t, nil
}

// ResponseTime regenerates §5.2's average response time comparison.
func (r *Runner) ResponseTime() (*Table, error) {
	t := &Table{
		ID:     "response",
		Title:  "Average response time (ms)",
		Header: append([]string{"Trace"}, fig7Policies()...),
	}
	for _, p := range presets() {
		row := []string{p.String()}
		for _, polName := range fig7Policies() {
			res, err := r.Execute(Run{Preset: p, Policy: polName, Features: featuresFor(polName)})
			if err != nil {
				return nil, err
			}
			ms := float64(res.MeanResponse) / float64(time.Millisecond)
			row = append(row, fmt.Sprintf("%.2f", ms))
			t.set(p.String(), polName, ms)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// HitRate regenerates §5.2's claim: ~30% of the site in memory yields
// ~85% hit rate under LARD and ~10% more under PRORD.
func (r *Runner) HitRate() (*Table, error) {
	t := &Table{
		ID:     "hitrate",
		Title:  "Memory hit rates at 30% of site data in memory",
		Header: []string{"Trace", "WRR", "LARD", "PRORD"},
	}
	for _, p := range presets() {
		row := []string{p.String()}
		for _, polName := range []string{"WRR", "LARD", "PRORD"} {
			res, err := r.Execute(Run{Preset: p, Policy: polName,
				Features: featuresFor(polName), MemoryFraction: 0.3})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", res.HitRate))
			t.set(p.String(), polName, res.HitRate)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// All runs every experiment in paper order.
func (r *Runner) All() ([]*Table, error) {
	type fn struct {
		name string
		f    func() (*Table, error)
	}
	fns := []fn{
		{"table1", r.Table1},
		{"fig6", r.Fig6},
		{"fig7", r.Fig7},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"scale", r.Scale},
		{"response", r.ResponseTime},
		{"hitrate", r.HitRate},
	}
	var out []*Table
	for _, x := range fns {
		t, err := x.f()
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", x.name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID runs one experiment by its table id.
func (r *Runner) ByID(id string) (*Table, error) {
	switch id {
	case "table1":
		return r.Table1()
	case "fig6":
		return r.Fig6()
	case "fig7":
		return r.Fig7()
	case "fig8":
		return r.Fig8()
	case "fig9":
		return r.Fig9()
	case "scale":
		return r.Scale()
	case "response":
		return r.ResponseTime()
	case "hitrate":
		return r.HitRate()
	case "ablation-order":
		return r.AblationOrder()
	case "ablation-threshold":
		return r.AblationThreshold()
	case "ablation-cache":
		return r.AblationCache()
	case "ablation-predictor":
		return r.AblationPredictor()
	case "dynamic":
		return r.Dynamic()
	case "predictors":
		return r.PredictorComparison()
	case "power":
		return r.Power()
	case "frontends":
		return r.FrontEnds()
	case "failover":
		return r.Failover()
	default:
		return nil, fmt.Errorf("experiment: unknown id %q", id)
	}
}

// IDs lists the runnable experiment ids.
func IDs() []string {
	return []string{"table1", "fig6", "fig7", "fig8", "fig9", "scale",
		"response", "hitrate", "dynamic", "predictors", "power", "failover", "frontends",
		"ablation-order", "ablation-threshold", "ablation-cache", "ablation-predictor"}
}
