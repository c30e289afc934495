package mining

import "prord/internal/trace"

// PPM is a prediction-by-partial-match predictor [26]: a j-order Markov
// model that *blends* all context lengths with PPM-C escape
// probabilities, instead of the pure longest-match backoff the plain
// Model uses. Blending makes it robust when the longest context has been
// seen only once or twice — exactly the regime the paper's §2.2.3 notes
// makes high orders expensive and fragile.
type PPM struct {
	model *Model
}

// NewPPM returns a PPM predictor of the given maximum order.
func NewPPM(order int) *PPM {
	return &PPM{model: NewModel(order)}
}

// Model exposes the underlying count store (shared layout with Model).
func (p *PPM) Model() *Model { return p.model }

// Train implements Predictor.
func (p *PPM) Train(tr *trace.Trace) { p.model.Train(tr) }

// ObserveSequence trains on one session's page sequence.
func (p *PPM) ObserveSequence(pages []string) { p.model.ObserveSequence(pages) }

// Window implements OnlinePredictor.
func (p *PPM) Window() int { return p.model.Order() }

// Predict implements Predictor with PPM-C blending: starting from the
// longest matching context, each order contributes its successor
// distribution scaled by the probability mass that escaped every longer
// order. Escape probability of a context is d/(n+d) where n is the
// context's total count and d its number of distinct successors (PPM-C).
//
// The blend is scored page by page against the matched contexts rather
// than accumulated in a map, so a prediction allocates nothing for
// orders up to ppmStack.
func (p *PPM) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	start := len(recent) - p.model.order
	if start < 0 {
		start = 0
	}
	blend := make([]ppmOrder, 0, ppmStack)
	weight := 1.0
	for k := len(recent) - start; k >= 1 && weight > 1e-9; k-- {
		cs := p.model.context(recent[len(recent)-k:])
		if cs == nil || cs.total == 0 {
			continue
		}
		blend = append(blend, ppmOrder{cs: cs, weight: weight, order: k})
		n := float64(cs.total)
		d := float64(len(cs.next))
		weight *= d / (n + d) // escape to the next shorter context
	}
	if len(blend) == 0 {
		return Prediction{}, false
	}
	// A page is scored once, at the longest order that continues to it,
	// summing its shares from that order down exactly as a running
	// per-page sum would. Ties go to the lexicographically first page.
	best, bestScore := "", -1.0
	var total float64
	for i, o := range blend {
		continuations := 0
		for page, count := range o.cs.next {
			continuations += count
			if scoredAbove(blend[:i], page) {
				continue
			}
			score := 0.0
			for _, lo := range blend[i:] {
				if count, ok := lo.cs.next[page]; ok {
					score += lo.share(count)
				}
			}
			if score > bestScore || (score == bestScore && page < best) {
				best, bestScore = page, score
			}
		}
		// The order's whole share, from an integer sum: the total does
		// not depend on the maps' iteration order.
		total += o.share(continuations)
	}
	return Prediction{
		Page:       best,
		Confidence: bestScore / total,
		Order:      blend[0].order,
	}, true
}

// ppmStack is the number of blended orders Predict holds on the stack.
const ppmStack = 8

// ppmOrder is one matched context of a PPM blend and the probability
// mass that escaped every longer order to reach it.
type ppmOrder struct {
	cs     *ctxStats
	weight float64
	order  int
}

// share is the blend score of count continuations of this order.
func (o ppmOrder) share(count int) float64 {
	n := float64(o.cs.total)
	d := float64(len(o.cs.next))
	return o.weight * float64(count) / (n + d)
}

// scoredAbove reports whether a longer matched order continues to page.
func scoredAbove(longer []ppmOrder, page string) bool {
	for _, o := range longer {
		if _, ok := o.cs.next[page]; ok {
			return true
		}
	}
	return false
}

var (
	_ Predictor       = (*PPM)(nil)
	_ OnlinePredictor = (*PPM)(nil)
)
