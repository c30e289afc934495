package experiment

import (
	"fmt"
	"slices"

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
	add := func(name, value string) {
		t.Rows = append(t.Rows, []string{name, value})
	}
	add("Backend servers", fmt.Sprintf("%d (experiments sweep 6-16)", r.opt.Backends))
	add("Application memory", fmt.Sprintf("%d MB", p.AppMemory>>20))
	add("Pinned memory", fmt.Sprintf("%d MB (variable)", p.PinnedMemory>>20))
	add("Connection latency", p.ConnectionLatency.String())
	add("TCP handoff latency", p.HandoffLatency.String()+" per request")
	add("Data transmission (migration)", p.NetPerKB.String()+" per KB")
	add("Disk latency", fmt.Sprintf("%v fixed + %v per KB (substituted; Table 1 row garbled)", p.DiskFixed, p.DiskPerKB))
	add("Backend CPU", fmt.Sprintf("%v per request + %v per KB", p.CPUPerRequest, p.CPUPerKB))
	add("Distributor", fmt.Sprintf("%v per request + %v per dispatch", p.FrontPerRequest, p.DispatchLatency))
	t.Notes = append(t.Notes, "power parameters (Table 1's ON/OFF/hibernation row) belong to PARD and are outside PRORD's evaluation")
	return t, nil
}

// Fig6 regenerates "Frequency of Dispatches": dispatcher consultations of
// LARD vs PRORD on each trace.
func (r *Runner) Fig6() (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Frequency of dispatches (LARD vs PRORD)",
		Header: []string{"Trace"},
	}
	dispatches := func(o *outcome) float64 { return float64(o.Metrics.Dispatches) }
	return r.fill(t, byTrace([]string{"LARD", "PRORD"}, 0),
		col{"Requests", "requests", "%.0f", at(0, func(o *outcome) float64 { return float64(o.Metrics.Completed) })},
		col{"LARD", "LARD", "%.0f", at(0, dispatches)},
		col{"PRORD", "PRORD", "%.0f", at(1, dispatches)},
		col{"Reduction", "reduction", "%.1f%%", func(o []*outcome) float64 {
			if o[0].Metrics.Dispatches == 0 {
				return 0
			}
			return 100 * (1 - dispatches(o[1])/dispatches(o[0]))
		}})
}

// fig7Policies is the comparison set of Fig. 7.
func fig7Policies() []string {
	return []string{"WRR", "LARD", "Ext-LARD-PHTTP", "PRORD"}
}

// sweep is one row per point i < n. Row i runs each policy's comparison
// cell on the Synthetic trace, changed by point(i, &run), which returns
// the row's label.
func sweep(n int, policies []string, point func(i int, run *Run) string) []row {
	rows := make([]row, n)
	for i := range rows {
		for _, polName := range policies {
			run := cell(trace.PresetSynthetic, polName)
			rows[i].lead = []string{point(i, &run)}
			rows[i].cells = append(rows[i].cells, run)
		}
	}
	return rows
}

// byTrace is a sweep over the three traces; memFraction overrides the
// campaign's memory when > 0.
func byTrace(policies []string, memFraction float64) []row {
	return sweep(len(presets()), policies, func(i int, run *Run) string {
		run.Preset, run.MemoryFraction = presets()[i], memFraction
		return run.Preset.String()
	})
}

// perPolicy is one column per policy of byTrace's rows, each the
// policy's metric m printed with format.
func perPolicy(policies []string, format string, m func(*outcome) float64) []col {
	cols := make([]col, len(policies))
	for i, polName := range policies {
		cols[i] = col{polName, polName, format, at(i, m)}
	}
	return cols
}

// gain is x's percentage gain over base, or 0 without a base.
func gain(x, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (x - base) / base
}

// Fig7 regenerates "Throughput Comparison" across WRR, LARD,
// Ext-LARD-PHTTP and PRORD on each trace.
func (r *Runner) Fig7() (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Throughput comparison (requests/second)",
		Header: []string{"Trace"},
		Notes:  []string{"paper reports PRORD 10-45% over LARD; shapes, not absolute req/s, are comparable"},
	}
	pols := fig7Policies()
	// A row's cells follow pols: LARD's is the second, PRORD's the fourth.
	cols := append(perPolicy(pols, "%.0f", throughput), col{"PRORD vs LARD", "gain", "%+.1f%%",
		func(o []*outcome) float64 { return gain(o[3].Throughput, o[1].Throughput) }})
	return r.fill(t, byTrace(pols, 0), cols...)
}

// lardVsPRORD are the columns of a LARD-then-PRORD sweep: both
// throughputs and their ratio.
var lardVsPRORD = []col{
	{"LARD", "LARD", "%.0f", at(0, throughput)},
	{"PRORD", "PRORD", "%.0f", at(1, throughput)},
	{"PRORD/LARD", "ratio", "%.2fx", func(o []*outcome) float64 {
		if o[0].Throughput <= 0 {
			return 0
		}
		return o[1].Throughput / o[0].Throughput
	}},
}

// Fig8MemoryPoints are the memory fractions Fig. 8 sweeps.
var Fig8MemoryPoints = []float64{0.10, 0.20, 0.30, 0.50, 0.75, 1.0}

// Fig8 regenerates "Throughput varying data amount in memory": LARD vs
// PRORD as the fraction of the site fitting in cluster memory grows.
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Throughput vs fraction of site data in backend memory (Synthetic)",
		Header: []string{"Memory fraction"},
		Notes:  []string{"the paper's claim: PRORD preserves locality better than LARD as memory shrinks"},
	}
	rows := sweep(len(Fig8MemoryPoints), []string{"LARD", "PRORD"}, func(i int, run *Run) string {
		run.MemoryFraction = Fig8MemoryPoints[i]
		return fmt.Sprintf("%.0f%%", 100*run.MemoryFraction)
	})
	return r.fill(t, rows, lardVsPRORD...)
}

// fig9Variants are the Fig. 9 rows. The enhancements layer onto the LARD
// baseline exactly as §5.2 describes; PRORD is the combination (with its
// proactive routing policy).
func fig9Variants() []row {
	lard := func(label string, f cluster.Features) row {
		return row{[]string{label}, []Run{{Preset: trace.PresetCS, Policy: "LARD", Features: f}}}
	}
	return []row{
		lard("LARD", cluster.Features{}),
		lard("LARD-bundle", cluster.Features{Bundle: true}),
		lard("LARD-distribution", cluster.Features{Replication: true}),
		lard("LARD-prefetch-nav", cluster.Features{NavPrefetch: true}),
		{[]string{"PRORD"}, []Run{cell(trace.PresetCS, "PRORD")}},
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
		Header: []string{"Variant"},
	}
	_, err := r.fill(t, fig9Variants(),
		col{"Throughput", "throughput", "%.0f", at(0, throughput)},
		col{"Hit rate", "hitrate", "%.3f", at(0, hitRate)},
		col{"Replicas", "replicas", "%.0f", at(0, func(o *outcome) float64 { return float64(o.Metrics.Replications) })},
		col{"Prefetches", "prefetches", "%.0f", at(0, prefetches)})
	if err != nil {
		return nil, err
	}
	// Each row's gain over plain LARD goes after the hit rate.
	base := t.MustGet("LARD", "throughput")
	t.Header = slices.Insert(t.Header, 3, "vs LARD")
	for i, rw := range t.Rows {
		t.Rows[i] = slices.Insert(rw, 3, fmt.Sprintf("%+.1f%%", gain(t.MustGet(rw[0], "throughput"), base)))
	}
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
		Header: []string{"Backends"},
	}
	rows := sweep(len(ScaleBackendCounts), []string{"LARD", "PRORD"}, func(i int, run *Run) string {
		run.Backends = ScaleBackendCounts[i]
		return fmt.Sprintf("%d", run.Backends)
	})
	return r.fill(t, rows, lardVsPRORD...)
}

// ResponseTime regenerates §5.2's average response time comparison.
func (r *Runner) ResponseTime() (*Table, error) {
	t := &Table{
		ID:     "response",
		Title:  "Average response time (ms)",
		Header: []string{"Trace"},
	}
	pols := fig7Policies()
	return r.fill(t, byTrace(pols, 0), perPolicy(pols, "%.2f", respMs)...)
}

// HitRate regenerates §5.2's claim: ~30% of the site in memory yields
// ~85% hit rate under LARD and ~10% more under PRORD.
func (r *Runner) HitRate() (*Table, error) {
	t := &Table{
		ID:     "hitrate",
		Title:  "Memory hit rates at 30% of site data in memory",
		Header: []string{"Trace"},
	}
	pols := []string{"WRR", "LARD", "PRORD"}
	return r.fill(t, byTrace(pols, 0.3), perPolicy(pols, "%.3f", hitRate)...)
}
