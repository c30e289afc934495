package mining

// NavObs is one online navigation observation: a connection requested
// Page, and Prev was the last page of its tracked window ("" when the
// window was empty — a session's first page).
type NavObs struct {
	Prev string
	Page string
}

// Fold returns a new Model with the observations applied, observation
// for observation exactly as Tracker's in-place online learning would
// have applied them (a NavObs folds like ObserveSequence([prev, page]),
// or [page] alone for a window-opening observation). The receiver is
// not modified: unchanged contexts are shared structurally, touched
// ones are copied first.
func (m *Model) Fold(obs []NavObs) *Model {
	if len(obs) == 0 {
		return m
	}
	nm := &Model{
		order:        m.order,
		observations: m.observations,
		ctx:          make(map[string]*ctxStats, len(m.ctx)+len(obs)),
		accessed:     make(map[string]int, len(m.accessed)+len(obs)),
	}
	for k, v := range m.ctx {
		nm.ctx[k] = v
	}
	for k, v := range m.accessed {
		nm.accessed[k] = v
	}
	copied := make(map[string]bool, len(obs))
	for _, o := range obs {
		if o.Prev == "" {
			// ObserveSequence([page]): the access count alone.
			nm.accessed[o.Page]++
			continue
		}
		// ObserveSequence([prev, page]): both access counts, one
		// transition under the length-1 context (two-page sequences
		// never extend longer contexts, matching the online tracker).
		nm.accessed[o.Prev]++
		nm.accessed[o.Page]++
		nm.observations++
		cs, ok := nm.ctx[o.Prev]
		switch {
		case !ok:
			cs = &ctxStats{next: make(map[string]int, 1)}
			nm.ctx[o.Prev] = cs
			copied[o.Prev] = true
		case !copied[o.Prev]:
			cp := &ctxStats{total: cs.total, next: make(map[string]int, len(cs.next)+1)}
			for p, n := range cs.next {
				cp.next[p] = n
			}
			nm.ctx[o.Prev] = cp
			copied[o.Prev] = true
			cs = cp
		}
		cs.total++
		cs.next[o.Page]++
	}
	return nm
}
