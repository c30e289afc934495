package mining

import "prord/internal/trace"

// SeqRules is a generalized-sequence-rule predictor ([28], "mining web
// navigation path fragments"): its contexts are ordered page pairs that
// may have GAPS between them — "the user visited a at some point, and is
// now at b" — rather than the contiguous paths the dependency-graph
// model requires. Gap tolerance captures habits like "users who passed
// through the pricing page eventually open the signup form", which
// contiguous models fragment.
type SeqRules struct {
	maxGap int
	// pair maps "a|b" (a strictly before b, gap <= maxGap) to the counts
	// of the page requested immediately after b.
	pair map[string]*ctxStats
	// uni is the order-1 fallback.
	uni map[string]*ctxStats
}

// NewSeqRules returns a sequence-rule predictor. maxGap bounds how many
// pages may sit between the two context pages (0 = contiguous; default 3
// when negative).
func NewSeqRules(maxGap int) *SeqRules {
	if maxGap < 0 {
		maxGap = 3
	}
	return &SeqRules{
		maxGap: maxGap,
		pair:   make(map[string]*ctxStats),
		uni:    make(map[string]*ctxStats),
	}
}

// ObserveSequence trains on one session's page sequence.
func (s *SeqRules) ObserveSequence(pages []string) {
	record := func(m map[string]*ctxStats, key, next string) {
		cs, ok := m[key]
		if !ok {
			cs = &ctxStats{next: make(map[string]int)}
			m[key] = cs
		}
		cs.total++
		cs.next[next]++
	}
	for j := 0; j+1 < len(pages); j++ {
		next := pages[j+1]
		record(s.uni, pages[j], next)
		lo := j - 1 - s.maxGap
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < j; i++ {
			record(s.pair, pages[i]+ctxSep+pages[j], next)
		}
	}
}

// Train implements Predictor.
func (s *SeqRules) Train(tr *trace.Trace) { eachPageSequence(tr, s.ObserveSequence) }

// bestOf returns the deterministic argmax continuation of a context.
func bestOf(cs *ctxStats, order int) (Prediction, bool) {
	if cs == nil || cs.total == 0 {
		return Prediction{}, false
	}
	best, bestCount := "", 0
	for page, count := range cs.next {
		if count > bestCount || (count == bestCount && page < best) {
			best, bestCount = page, count
		}
	}
	return Prediction{
		Page:       best,
		Confidence: float64(bestCount) / float64(cs.total),
		Order:      order,
	}, true
}

// Predict implements Predictor: it tries every (earlier page, current
// page) pair within the gap bound, preferring the most confident pair
// rule, and falls back to the order-1 rule.
func (s *SeqRules) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	cur := recent[len(recent)-1]
	var best Prediction
	found := false
	lo := len(recent) - 2 - s.maxGap
	if lo < 0 {
		lo = 0
	}
	for i := len(recent) - 2; i >= lo; i-- {
		if recent[i] == cur {
			continue
		}
		p, ok := bestOf(s.pair[recent[i]+ctxSep+cur], 2)
		if !ok {
			continue
		}
		if !found || p.Confidence > best.Confidence ||
			(p.Confidence == best.Confidence && p.Page < best.Page) {
			best, found = p, true
		}
	}
	if found {
		return best, true
	}
	return bestOf(s.uni[cur], 1)
}

// Window implements OnlinePredictor: the current page plus the gap-bound
// lookback.
func (s *SeqRules) Window() int { return s.maxGap + 2 }

var (
	_ Predictor       = (*SeqRules)(nil)
	_ OnlinePredictor = (*SeqRules)(nil)
)
