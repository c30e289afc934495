package mining

import "prord/internal/trace"

// DG is the Padmanabhan-Mogul dependency graph [19]: a first-order
// weighted digraph where the weight of u->v is the number of times v was
// requested within a lookahead window of w accesses after u, normalized by
// u's access count. It is the classic baseline predictor PRORD's n-order
// model is compared against.
type DG struct {
	window   int
	accesses map[string]int
	arcs     map[string]map[string]int
}

// NewDG returns an empty dependency graph with the given lookahead window
// (window >= 1; 1 means "directly follows").
func NewDG(window int) *DG {
	if window < 1 {
		window = 1
	}
	return &DG{
		window:   window,
		accesses: make(map[string]int),
		arcs:     make(map[string]map[string]int),
	}
}

// ObserveSequence trains the graph on one session's page sequence.
func (d *DG) ObserveSequence(pages []string) {
	for i, u := range pages {
		d.accesses[u]++
		for j := i + 1; j <= i+d.window && j < len(pages); j++ {
			v := pages[j]
			if v == u {
				continue
			}
			m, ok := d.arcs[u]
			if !ok {
				m = make(map[string]int)
				d.arcs[u] = m
			}
			m[v]++
		}
	}
}

// Train consumes a whole trace (main pages only).
func (d *DG) Train(tr *trace.Trace) { eachPageSequence(tr, d.ObserveSequence) }

// Predict returns the highest-confidence successor of the most recent
// page in recent. DG is first-order: only the last page matters.
func (d *DG) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	u := recent[len(recent)-1]
	total := d.accesses[u]
	m := d.arcs[u]
	if total == 0 || len(m) == 0 {
		return Prediction{}, false
	}
	best, bestCount := "", 0
	for v, c := range m {
		if c > bestCount || (c == bestCount && v < best) {
			best, bestCount = v, c
		}
	}
	conf := float64(bestCount) / float64(total)
	if conf > 1 {
		conf = 1
	}
	return Prediction{Page: best, Confidence: conf, Order: 1}, true
}

// Predictor is the common interface of the navigation predictors: the
// paper's n-order model (PPM-style longest match), PPM with escape, the
// DG baseline, sequence rules and association rules.
type Predictor interface {
	// Predict proposes the next page given the most recent page
	// sequence. It does not keep recent, which the caller may reuse.
	Predict(recent []string) (Prediction, bool)
	// Train fits the predictor on a training trace.
	Train(tr *trace.Trace)
}

// OnlinePredictor additionally learns from the live request stream and
// reports how many recent pages its predictions consider — what the
// per-connection Tracker needs.
type OnlinePredictor interface {
	Predictor
	// ObserveSequence folds one observed page sequence into the model.
	// It does not keep pages: the Tracker passes a buffer it owns and
	// overwrites on its next call.
	ObserveSequence(pages []string)
	// Window is the number of trailing pages worth tracking per
	// connection.
	Window() int
}

// Window implements OnlinePredictor for the DG (first-order successor
// counting over its lookahead window).
func (d *DG) Window() int { return d.window }

var (
	_ Predictor       = (*Model)(nil)
	_ Predictor       = (*DG)(nil)
	_ OnlinePredictor = (*Model)(nil)
	_ OnlinePredictor = (*DG)(nil)
)
