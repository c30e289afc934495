package experiment

import (
	"fmt"

	"prord/internal/cluster"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// AblationOrder sweeps the dependency-graph order (§4.1.1's trade-off:
// higher order predicts better but stores more contexts).
func (r *Runner) AblationOrder() (*Table, error) {
	t := &Table{
		ID:     "ablation-order",
		Title:  "Dependency-graph order vs prefetch quality (Synthetic, PRORD)",
		Header: []string{"Order", "Contexts", "Prefetch accuracy", "Hit rate", "Throughput"},
	}
	for _, order := range []int{1, 2, 3} {
		opt := r.opt
		opt.Mining.Order = order
		rr := NewRunner(opt)
		eval, miner, err := rr.workload(trace.PresetSynthetic)
		if err != nil {
			return nil, err
		}
		res, err := rr.Execute(Run{Preset: trace.PresetSynthetic, Policy: "PRORD", Features: cluster.AllFeatures()})
		if err != nil {
			return nil, err
		}
		_ = eval
		label := fmt.Sprintf("%d", order)
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", miner.Model.Contexts()),
			fmt.Sprintf("%.3f", res.Metrics.PrefetchAccuracy()),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.0f", res.Throughput),
		})
		t.set(label, "contexts", float64(miner.Model.Contexts()))
		t.set(label, "accuracy", res.Metrics.PrefetchAccuracy())
		t.set(label, "hitrate", res.HitRate)
		t.set(label, "throughput", res.Throughput)
	}
	return t, nil
}

// AblationThreshold sweeps Algorithm 2's prefetch confidence threshold.
func (r *Runner) AblationThreshold() (*Table, error) {
	t := &Table{
		ID:     "ablation-threshold",
		Title:  "Prefetch confidence threshold (Synthetic, PRORD)",
		Header: []string{"Threshold", "Prefetches", "Accuracy", "Hit rate", "Throughput"},
	}
	for _, th := range []float64{0.2, 0.4, 0.6, 0.8} {
		opt := r.opt
		opt.Mining.PrefetchThreshold = th
		rr := NewRunner(opt)
		res, err := rr.Execute(Run{Preset: trace.PresetSynthetic, Policy: "PRORD", Features: cluster.AllFeatures()})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.1f", th)
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", res.Metrics.Prefetches),
			fmt.Sprintf("%.3f", res.Metrics.PrefetchAccuracy()),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.0f", res.Throughput),
		})
		t.set(label, "prefetches", float64(res.Metrics.Prefetches))
		t.set(label, "accuracy", res.Metrics.PrefetchAccuracy())
		t.set(label, "throughput", res.Throughput)
	}
	t.Notes = append(t.Notes, "low thresholds prefetch aggressively (more disk churn); high thresholds prefetch rarely")
	return t, nil
}

// AblationCache compares LRU against GDSF / GDSF-split demand caches
// (§2.2.3 and [20]'s extension).
func (r *Runner) AblationCache() (*Table, error) {
	t := &Table{
		ID:     "ablation-cache",
		Title:  "Demand-cache policy (Synthetic)",
		Header: []string{"Cache", "Policy", "Hit rate", "Throughput"},
	}
	type variant struct {
		label   string
		useGDSF bool
		policy  string
		feats   cluster.Features
	}
	variants := []variant{
		{"LRU", false, "LARD", cluster.Features{}},
		{"GDSF", true, "LARD", cluster.Features{}},
		{"LRU", false, "PRORD", cluster.AllFeatures()},
		{"GDSF-split", true, "PRORD", cluster.AllFeatures()},
	}
	for _, v := range variants {
		opt := r.opt
		opt.UseGDSF = v.useGDSF
		rr := NewRunner(opt)
		res, err := rr.Execute(Run{Preset: trace.PresetSynthetic, Policy: v.policy, Features: v.feats})
		if err != nil {
			return nil, err
		}
		label := v.label + "/" + v.policy
		t.Rows = append(t.Rows, []string{
			v.label, v.policy,
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.0f", res.Throughput),
		})
		t.set(label, "hitrate", res.HitRate)
		t.set(label, "throughput", res.Throughput)
	}
	return t, nil
}

// AblationPredictor swaps the navigation predictor driving Algorithm 2's
// prefetching (in the full PRORD system) and measures the end-to-end
// impact — connecting the offline accuracy comparison to the cluster.
func (r *Runner) AblationPredictor() (*Table, error) {
	t := &Table{
		ID:     "ablation-predictor",
		Title:  "Prefetch predictor in the full PRORD system (Synthetic)",
		Header: []string{"Predictor", "Prefetches", "Uses/prefetch", "Hit rate", "Throughput"},
	}
	for _, pred := range []string{"model", "ppm", "seqrules", "dg"} {
		opt := r.opt
		opt.Mining.Predictor = pred
		rr := NewRunner(opt)
		res, err := rr.Execute(Run{Preset: trace.PresetSynthetic, Policy: "PRORD", Features: cluster.AllFeatures()})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			pred,
			fmt.Sprintf("%d", res.Metrics.Prefetches),
			fmt.Sprintf("%.2f", res.Metrics.PrefetchAccuracy()),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.0f", res.Throughput),
		})
		t.set(pred, "prefetches", float64(res.Metrics.Prefetches))
		t.set(pred, "accuracy", res.Metrics.PrefetchAccuracy())
		t.set(pred, "hitrate", res.HitRate)
		t.set(pred, "throughput", res.Throughput)
	}
	return t, nil
}

// Dynamic regenerates the paper's §6 future-work direction: how the
// PRORD advantage evolves as the fraction of dynamically generated
// (uncacheable) pages grows. Locality-driven gains dilute with dynamic
// content; the experiment quantifies by how much.
func (r *Runner) Dynamic() (*Table, error) {
	t := &Table{
		ID:     "dynamic",
		Title:  "Dynamic-content sweep (Synthetic site, LARD vs PRORD)",
		Header: []string{"Dynamic pages", "LARD", "PRORD", "PRORD/LARD", "Dynamic reqs"},
	}
	for _, frac := range []float64{0, 0.1, 0.3, 0.5} {
		sc, tc, err := trace.PresetConfigs(trace.PresetSynthetic, r.opt.Scale)
		if err != nil {
			return nil, err
		}
		sc.DynamicFraction = frac
		var results [2]*cluster.Result
		for i, polName := range []string{"LARD", "PRORD"} {
			rng := randutil.New(r.opt.Seed)
			site, err := trace.GenerateSite(sc, rng)
			if err != nil {
				return nil, err
			}
			full, err := trace.Generate("dyn", site, tc, rng)
			if err != nil {
				return nil, err
			}
			compress(full, r.opt.LoadFactor*presetLoadScale(trace.PresetSynthetic))
			train, eval := full.Split(r.opt.TrainFraction)
			miner := mining.Mine(train, r.opt.Mining)
			pol, err := policy.ByName(polName, r.opt.Backends, policy.Thresholds{})
			if err != nil {
				return nil, err
			}
			feats := cluster.Features{}
			if polName == "PRORD" {
				feats = cluster.AllFeatures()
			}
			cl, err := cluster.New(cluster.Config{
				Params:   r.params(eval.TotalFileBytes(), r.opt.Backends, r.opt.MemoryFraction),
				Policy:   pol,
				Features: feats,
				Miner:    miner,
			})
			if err != nil {
				return nil, err
			}
			res, err := r.replay(cl, eval)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		lard, prord := results[0], results[1]
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
			fmt.Sprintf("%d", prord.Metrics.DynamicServed),
		})
		t.set(label, "LARD", lard.Throughput)
		t.set(label, "PRORD", prord.Throughput)
		t.set(label, "ratio", ratio)
		t.set(label, "dynamic", float64(prord.Metrics.DynamicServed))
	}
	t.Notes = append(t.Notes, "dynamic pages are uncacheable and cost per-request CPU; locality gains dilute as their share grows")
	return t, nil
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
		_, full, err := trace.GeneratePreset(p, r.opt.Scale, r.opt.Seed)
		if err != nil {
			return nil, err
		}
		train, eval := full.Split(r.opt.TrainFraction)
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
	for _, idxs := range tr.Sessions() {
		var pages []string
		for _, i := range idxs {
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
