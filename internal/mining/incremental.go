package mining

import "sync"

// This file is the incremental half of the mining split: the offline
// batch pass (Mine) builds the initial model from a training log, and
// an Updater keeps it current afterwards without stop-the-world
// re-mines. Live navigation observations buffer in the Updater
// (control plane); a batched Refresh folds them into a copy-on-write
// copy of the dependency-graph model (data plane), which the consumer
// publishes atomically — readers keep predicting against the previous
// immutable copy while the fold runs.
// The refresh interval t from the paper therefore bounds prediction
// staleness, not lock-hold time.

// NavObs is one buffered online navigation observation: a connection
// requested Page, and Prev was the last page of its tracked window
// ("" when the window was empty — a session's first page).
type NavObs struct {
	Prev string
	Page string
}

// Folder is an OnlinePredictor that supports copy-on-write batch
// folds: FoldObs returns a new, independent predictor with the
// observations applied, leaving the receiver untouched so already
// published snapshots stay immutable. The default n-order Model
// implements it; the comparison predictors (PPM, SeqRules, DG) learn
// in place only.
type Folder interface {
	OnlinePredictor
	FoldObs(obs []NavObs) OnlinePredictor
}

// Updater accumulates online navigation observations for a later batch
// fold. All methods are safe for concurrent use; its mutex is a leaf —
// nothing is acquired and nothing blocks while it is held.
type Updater struct {
	mu  sync.Mutex
	nav []NavObs
}

// NewUpdater returns an empty updater.
func NewUpdater() *Updater { return &Updater{} }

// ObserveNav buffers one navigation observation and returns the
// buffered navigation count.
func (u *Updater) ObserveNav(prev, page string) int {
	u.mu.Lock()
	u.nav = append(u.nav, NavObs{Prev: prev, Page: page})
	n := len(u.nav)
	u.mu.Unlock()
	return n
}

// Pending returns the number of buffered observations.
func (u *Updater) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.nav)
}

// Take drains the buffer, returning the observations in arrival order.
// The returned slice is owned by the caller.
func (u *Updater) Take() []NavObs {
	u.mu.Lock()
	nav := u.nav
	u.nav = nil
	u.mu.Unlock()
	return nav
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

// FoldObs implements Folder.
func (m *Model) FoldObs(obs []NavObs) OnlinePredictor { return m.Fold(obs) }

var _ Folder = (*Model)(nil)
