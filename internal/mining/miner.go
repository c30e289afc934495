package mining

import (
	"fmt"
	"sync"

	"prord/internal/trace"
)

// Options configures a full mining pass.
type Options struct {
	// Order is the dependency-graph order (context length) of the
	// navigation model. Default 2, the order Fig. 3 illustrates.
	Order int
	// BundleSupport is the minimum fraction of a page's views an object
	// must co-occur in to join the page's bundle. Default 0.5.
	BundleSupport float64
	// RankDecay is the multiplicative aging factor of the popularity rank
	// table. Default 0.5.
	RankDecay float64
	// PrefetchThreshold is Algorithm 2's confidence threshold above which
	// the predicted page is prefetched. Default 0.4.
	PrefetchThreshold float64
	// Predictor selects the navigation model driving prefetch decisions:
	// "model" (the paper's n-order dependency graph, default), "ppm"
	// (escape-blended PPM [26]), "seqrules" (gap-tolerant sequence rules
	// [28]) or "dg" (first-order dependency graph [19]).
	Predictor string
}

// DefaultOptions returns the default mining configuration.
func DefaultOptions() Options {
	return Options{Order: 2, BundleSupport: 0.5, RankDecay: 0.5, PrefetchThreshold: 0.4, Predictor: "model"}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Order < 1 {
		o.Order = d.Order
	}
	if o.BundleSupport <= 0 || o.BundleSupport > 1 {
		o.BundleSupport = d.BundleSupport
	}
	if o.RankDecay <= 0 || o.RankDecay > 1 {
		o.RankDecay = d.RankDecay
	}
	if o.PrefetchThreshold <= 0 || o.PrefetchThreshold > 1 {
		o.PrefetchThreshold = d.PrefetchThreshold
	}
	switch o.Predictor {
	case "model", "ppm", "seqrules", "dg":
	default:
		o.Predictor = d.Predictor
	}
	return o
}

// Miner bundles every mining product PRORD consumes: the navigation model
// for prefetching, the embedded-object table for bundle forwarding and
// prefetching and the popularity ranker for replication.
type Miner struct {
	Options Options
	Model   *Model
	// Nav is the navigation predictor driving Algorithm 2's prefetching,
	// selected by Options.Predictor; with the default "model" it is the
	// same object as Model.
	Nav     OnlinePredictor
	Bundles *Bundles
	Ranker  *Ranker
}

// Mine performs the offline log-mining pass over a training trace.
func Mine(tr *trace.Trace, opt Options) *Miner {
	opt = opt.withDefaults()
	m := &Miner{
		Options: opt,
		Model:   NewModel(opt.Order),
		Bundles: NewBundles(opt.BundleSupport),
		Ranker:  NewRanker(opt.RankDecay),
	}
	switch opt.Predictor {
	case "ppm":
		m.Nav = NewPPM(opt.Order)
	case "seqrules":
		m.Nav = NewSeqRules(opt.Order + 1)
	case "dg":
		m.Nav = NewDG(opt.Order)
	default:
		m.Nav = m.Model
	}
	// The trainers share nothing but the trace, which they only read,
	// so they train at once, each as the same sequential pass it would
	// be alone.
	var wg sync.WaitGroup
	train := func(p Predictor) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Train(tr)
		}()
	}
	train(m.Model)
	if m.Nav != m.Model {
		train(m.Nav)
	}
	m.Bundles.Train(tr)
	m.Ranker.Train(tr)
	wg.Wait()
	return m
}

// ShouldPrefetch applies Algorithm 2's admission rule to a prediction:
// prefetch when the confidence of the top candidate exceeds the threshold.
func (m *Miner) ShouldPrefetch(p Prediction) bool {
	return p.Confidence > m.Options.PrefetchThreshold
}

// Summary returns a one-line description used by the logmine CLI.
func (m *Miner) Summary() string {
	return fmt.Sprintf("order-%d model: %d contexts, %d transitions; %d bundled pages; %d ranked files",
		m.Model.Order(), m.Model.Contexts(), m.Model.Observations(),
		len(m.Bundles.Pages()), m.Ranker.Len())
}
