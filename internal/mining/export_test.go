package mining

import "sort"

// PredictAll returns every continuation of the longest matching context,
// sorted by descending confidence (ties by page).
func (m *Model) PredictAll(recent []string) []Prediction {
	if len(recent) == 0 {
		return nil
	}
	start := len(recent) - m.order
	if start < 0 {
		start = 0
	}
	for k := len(recent) - start; k >= 1; k-- {
		cs := m.context(recent[len(recent)-k:])
		if cs == nil || cs.total == 0 {
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

// Recent returns the connection's tracked page sequence. The slice is
// the tracker's own: it is valid until the connection's next Observe
// or its Close.
func (t *Tracker) Recent(conn int) []string {
	if k, ok := t.recent[conn]; ok {
		return t.window(k)
	}
	return nil
}

// Connections returns the number of tracked live connections.
func (t *Tracker) Connections() int { return len(t.recent) }

// Arcs returns the number of stored arcs (memory-cost measure).
func (d *DG) Arcs() int {
	n := 0
	for _, m := range d.arcs {
		n += len(m)
	}
	return n
}

// Rules returns the number of stored rules (the memory-cost measure).
func (a *Assoc) Rules() int { return a.ruleCount }

// Rules returns the number of stored pair contexts.
func (s *SeqRules) Rules() int { return len(s.pair) }

// Count returns the current (possibly decayed) request count for path.
func (r *Ranker) Count(path string) float64 {
	if row, ok := r.ids[path]; ok {
		return r.counts[row]
	}
	return 0
}
