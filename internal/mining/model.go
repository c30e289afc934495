// Package mining implements the web-log mining that drives PRORD: the
// n-order dependency graph and candidate paths of Algorithm 1, the
// prefetch-prediction of Algorithm 2, a PPM (prediction-by-partial-match)
// Markov predictor for comparison, popularity ranking for the replication
// of Algorithm 3, bundle (embedded-object table) discovery, and user-group
// categorization from navigation patterns (§3, §4.1).
package mining

import (
	"fmt"
	"sort"
	"strings"

	"prord/internal/trace"
)

// Prediction is one predicted next page with its confidence: the fraction
// of historical continuations of the matched context that went to Page.
type Prediction struct {
	Page       string
	Confidence float64
	// Order is the context length (number of trailing pages) the
	// prediction was made from; longer contexts are more trustworthy
	// ("the longer the comparison paths are, the better the confidence").
	Order int
}

// Model is an n-order navigation model: for every observed page sequence
// of length 1..Order it records the continuation counts. The paper's
// space-saving rule (§4.1.1-i: store relations only between directly
// linked pages) holds by construction, because contexts are only ever
// extended along transitions that actually occur.
type Model struct {
	order int
	// ctx maps a joined context ("a|b") to its continuation stats.
	ctx map[string]*ctxStats
	// accessed counts per-page accesses (Algorithm 2's Accessed_Num).
	accessed map[string]int
	// observations counts the training transitions.
	observations int
}

type ctxStats struct {
	total int
	next  map[string]int
}

const ctxSep = "|"

// NewModel returns an empty model of the given order (max context length).
// Order must be at least 1.
func NewModel(order int) *Model {
	if order < 1 {
		panic(fmt.Sprintf("mining: order must be >= 1, got %d", order))
	}
	return &Model{
		order:    order,
		ctx:      make(map[string]*ctxStats),
		accessed: make(map[string]int),
	}
}

// Order returns the model's maximum context length.
func (m *Model) Order() int { return m.order }

// Window implements OnlinePredictor.
func (m *Model) Window() int { return m.order }

// Contexts returns the number of distinct contexts stored — the paper's
// memory-cost measure for the dependency graph.
func (m *Model) Contexts() int { return len(m.ctx) }

// Observations returns the number of transitions the model has seen.
func (m *Model) Observations() int { return m.observations }

// ObserveSequence trains the model on one session's ordered main-page
// sequence.
func (m *Model) ObserveSequence(pages []string) {
	for i, p := range pages {
		m.accessed[p]++
		if i == 0 {
			continue
		}
		m.observations++
		// Register the transition under every context length that fits.
		for k := 1; k <= m.order && k <= i; k++ {
			key := strings.Join(pages[i-k:i], ctxSep)
			cs, ok := m.ctx[key]
			if !ok {
				cs = &ctxStats{next: make(map[string]int)}
				m.ctx[key] = cs
			}
			cs.total++
			cs.next[p]++
		}
	}
}

// Train consumes a whole trace, feeding every session's main-page
// sequence (embedded-object requests are excluded: navigation prediction
// operates on pages, bundles cover the objects).
func (m *Model) Train(tr *trace.Trace) {
	sessions := tr.Sessions()
	ids := make([]int, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic training order
	for _, id := range ids {
		var pages []string
		for _, idx := range sessions[id] {
			r := &tr.Requests[idx]
			if !r.Embedded {
				pages = append(pages, r.Path)
			}
		}
		m.ObserveSequence(pages)
	}
}

// Accessed returns Algorithm 2's Accessed_Num for a page.
func (m *Model) Accessed(page string) int { return m.accessed[page] }

// Predict returns the most likely next page given the user's recent page
// sequence, using the longest stored context (PPM-style longest-match).
// The boolean is false when no context of any length matches.
func (m *Model) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	start := len(recent) - m.order
	if start < 0 {
		start = 0
	}
	for k := len(recent) - start; k >= 1; k-- {
		key := strings.Join(recent[len(recent)-k:], ctxSep)
		cs, ok := m.ctx[key]
		if !ok || cs.total == 0 {
			continue
		}
		best, bestCount := "", 0
		// Deterministic argmax: ties broken by lexicographic page order.
		for page, count := range cs.next {
			if count > bestCount || (count == bestCount && page < best) {
				best, bestCount = page, count
			}
		}
		return Prediction{
			Page:       best,
			Confidence: float64(bestCount) / float64(cs.total),
			Order:      k,
		}, true
	}
	return Prediction{}, false
}

// PredictAll returns every continuation of the longest matching context,
// sorted by descending confidence (ties by page). Used by prefetchers that
// fetch more than one candidate and by the GDSF-split cache's future
// frequency.
func (m *Model) PredictAll(recent []string) []Prediction {
	if len(recent) == 0 {
		return nil
	}
	start := len(recent) - m.order
	if start < 0 {
		start = 0
	}
	for k := len(recent) - start; k >= 1; k-- {
		key := strings.Join(recent[len(recent)-k:], ctxSep)
		cs, ok := m.ctx[key]
		if !ok || cs.total == 0 {
			continue
		}
		preds := make([]Prediction, 0, len(cs.next))
		for page, count := range cs.next {
			preds = append(preds, Prediction{
				Page:       page,
				Confidence: float64(count) / float64(cs.total),
				Order:      k,
			})
		}
		sort.Slice(preds, func(i, j int) bool {
			if preds[i].Confidence != preds[j].Confidence {
				return preds[i].Confidence > preds[j].Confidence
			}
			return preds[i].Page < preds[j].Page
		})
		return preds
	}
	return nil
}

// Tracker maintains the per-connection navigation state Algorithm 2
// attaches to every persistent connection ("sequence and previous_page
// are assigned to each connection"): the last Window() pages requested.
type Tracker struct {
	model  OnlinePredictor
	recent map[int][]string
	online bool
}

// NewTracker returns a tracker over an online predictor (usually the
// n-order Model; PPM, SeqRules or DG also qualify). If online is true,
// observed transitions also update the model (the paper's dynamic online
// tracking complementing offline analysis).
func NewTracker(model OnlinePredictor, online bool) *Tracker {
	return &Tracker{model: model, recent: make(map[int][]string), online: online}
}

// Observe records that conn requested page and returns the prediction for
// the connection's next page.
func (t *Tracker) Observe(conn int, page string) (Prediction, bool) {
	seq := t.recent[conn]
	if t.online {
		if len(seq) > 0 {
			t.model.ObserveSequence([]string{seq[len(seq)-1], page})
		} else {
			t.model.ObserveSequence([]string{page})
		}
	}
	seq = append(seq, page)
	window := t.model.Window()
	if window < 1 {
		window = 1
	}
	if over := len(seq) - window; over > 0 {
		seq = seq[over:]
	}
	t.recent[conn] = seq
	return t.model.Predict(seq)
}

// Recent returns the connection's tracked page sequence.
func (t *Tracker) Recent(conn int) []string { return t.recent[conn] }

// Close discards a finished connection's state.
func (t *Tracker) Close(conn int) { delete(t.recent, conn) }

// Connections returns the number of tracked live connections.
func (t *Tracker) Connections() int { return len(t.recent) }
