package experiment

import (
	"fmt"
	"slices"

	"prord/internal/mining"
	"prord/internal/trace"
)

// AblationOrder sweeps the dependency-graph order (§4.1.1's trade-off:
// higher order predicts better but stores more contexts).
func (r *Runner) AblationOrder() (*Table, error) {
	t := &Table{
		ID:     "ablation-order",
		Title:  "Dependency-graph order vs prefetch quality (Synthetic, PRORD)",
		Header: []string{"Order"},
	}
	rows := sweep(3, []string{"PRORD"}, func(i int, run *Run) string {
		run.MiningOrder = i + 1
		return fmt.Sprintf("%d", run.MiningOrder)
	})
	return r.fill(t, rows,
		col{"Contexts", "contexts", "%.0f", at(0, func(o *outcome) float64 { return float64(o.contexts) })},
		col{"Prefetch accuracy", "accuracy", "%.3f", at(0, accuracy)},
		col{"Hit rate", "hitrate", "%.3f", at(0, hitRate)},
		col{"Throughput", "throughput", "%.0f", at(0, throughput)})
}

// AblationThreshold sweeps Algorithm 2's prefetch confidence threshold.
func (r *Runner) AblationThreshold() (*Table, error) {
	t := &Table{
		ID:     "ablation-threshold",
		Title:  "Prefetch confidence threshold (Synthetic, PRORD)",
		Header: []string{"Threshold"},
		Notes:  []string{"low thresholds prefetch aggressively (more disk churn); high thresholds prefetch rarely"},
	}
	thresholds := []float64{0.2, 0.4, 0.6, 0.8}
	rows := sweep(len(thresholds), []string{"PRORD"}, func(i int, run *Run) string {
		run.PrefetchThreshold = thresholds[i]
		return fmt.Sprintf("%.1f", run.PrefetchThreshold)
	})
	return r.fill(t, rows,
		col{"Prefetches", "prefetches", "%.0f", at(0, prefetches)},
		col{"Accuracy", "accuracy", "%.3f", at(0, accuracy)},
		col{"Hit rate", "hitrate", "%.3f", at(0, hitRate)},
		col{"Throughput", "throughput", "%.0f", at(0, throughput)})
}

// AblationCache compares LRU against GDSF demand caches (§2.2.3).
func (r *Runner) AblationCache() (*Table, error) {
	t := &Table{
		ID:     "ablation-cache",
		Title:  "Demand-cache policy (Synthetic)",
		Header: []string{"Cache", "Policy"},
	}
	with := func(cache, policyName string) row {
		run := cell(trace.PresetSynthetic, policyName)
		run.Cache = cache
		return row{[]string{cache, policyName}, []Run{run}}
	}
	rows := []row{
		with("LRU", "LARD"),
		with("GDSF", "LARD"),
		with("LRU", "PRORD"),
		with("GDSF", "PRORD"),
	}
	return r.fill(t, rows,
		col{"Hit rate", "hitrate", "%.3f", at(0, hitRate)},
		col{"Throughput", "throughput", "%.0f", at(0, throughput)})
}

// AblationPredictor swaps the navigation predictor driving Algorithm 2's
// prefetching (in the full PRORD system) and measures the end-to-end
// impact — connecting the offline accuracy comparison to the cluster.
func (r *Runner) AblationPredictor() (*Table, error) {
	t := &Table{
		ID:     "ablation-predictor",
		Title:  "Prefetch predictor in the full PRORD system (Synthetic)",
		Header: []string{"Predictor"},
	}
	preds := []string{"model", "ppm", "seqrules", "dg"}
	rows := sweep(len(preds), []string{"PRORD"}, func(i int, run *Run) string {
		run.Predictor = preds[i]
		return run.Predictor
	})
	return r.fill(t, rows,
		col{"Prefetches", "prefetches", "%.0f", at(0, prefetches)},
		col{"Uses/prefetch", "accuracy", "%.2f", at(0, accuracy)},
		col{"Hit rate", "hitrate", "%.3f", at(0, hitRate)},
		col{"Throughput", "throughput", "%.0f", at(0, throughput)})
}

// Dynamic regenerates the paper's §6 future-work direction: how the
// PRORD advantage evolves as the fraction of dynamically generated
// (uncacheable) pages grows. Locality-driven gains dilute with dynamic
// content; the experiment quantifies by how much.
func (r *Runner) Dynamic() (*Table, error) {
	t := &Table{
		ID:     "dynamic",
		Title:  "Dynamic-content sweep (Synthetic site, LARD vs PRORD)",
		Header: []string{"Dynamic pages"},
		Notes:  []string{"dynamic pages are uncacheable and cost per-request CPU; locality gains dilute as their share grows"},
	}
	fracs := []float64{0, 0.1, 0.3, 0.5}
	rows := sweep(len(fracs), []string{"LARD", "PRORD"}, func(i int, run *Run) string {
		run.DynamicFraction = fracs[i]
		return fmt.Sprintf("%.0f%%", 100*run.DynamicFraction)
	})
	cols := append(slices.Clone(lardVsPRORD), col{"Dynamic reqs", "dynamic", "%.0f",
		at(1, func(o *outcome) float64 { return float64(o.Metrics.DynamicServed) })})
	return r.fill(t, rows, cols...)
}

// PredictorComparison scores the paper's n-order model against the DG
// baseline [19] on next-page prediction accuracy (offline, no cluster).
func (r *Runner) PredictorComparison() (*Table, error) {
	t := &Table{
		ID:     "predictors",
		Title:  "Next-page prediction accuracy (offline)",
		Header: []string{"Trace", "DG[19] (w=2)", "Assoc[23]", "SeqRules[28]", "PPM-2[26]", "Order-1", "Order-2", "Order-3"},
	}
	for _, p := range presets() {
		train, eval, err := workload(Run{Preset: p}, r.opt)
		if err != nil {
			return nil, err
		}
		row := []string{p.String()}
		preds := []mining.Predictor{
			mining.NewDG(2),
			mining.NewAssoc(3),
			mining.NewSeqRules(3),
			mining.NewPPM(2),
			mining.NewModel(1),
			mining.NewModel(2),
			mining.NewModel(3),
		}
		for i, pred := range preds {
			pred.Train(train)
			acc := predictorAccuracy(pred, eval)
			row = append(row, fmt.Sprintf("%.3f", acc))
			t.set(p.String(), t.Header[i+1], acc)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// predictorAccuracy measures top-1 next-page accuracy over a trace's
// sessions.
func predictorAccuracy(pred mining.Predictor, tr *trace.Trace) float64 {
	var total, correct int
	for _, s := range tr.Sessions() {
		var pages []string
		for _, i := range s.Reqs {
			if r := &tr.Requests[i]; !r.Embedded {
				pages = append(pages, r.Path)
			}
		}
		for i := 1; i < len(pages); i++ {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			p, ok := pred.Predict(pages[lo:i])
			if !ok {
				continue
			}
			total++
			if p.Page == pages[i] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
