package mining

import (
	"slices"
	"strings"

	"prord/internal/trace"
)

// Ranker maintains the popularity rank table Algorithm 3's replication is
// driven by. It combines offline analysis (Train) with dynamic online
// tracking (Observe) and exponential decay so the table reflects "the
// recent history" (§4.1.2) rather than all-time counts.
type Ranker struct {
	counts map[string]float64
	decay  float64 // multiplier applied by Age
}

// NewRanker returns an empty ranker. decay is the multiplicative factor
// Age applies to every count (0 < decay <= 1); values outside that range
// fall back to 0.5.
func NewRanker(decay float64) *Ranker {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	return &Ranker{counts: make(map[string]float64), decay: decay}
}

// Observe registers one request for path.
func (r *Ranker) Observe(path string) { r.counts[path]++ }

// Train registers every request in a trace.
func (r *Ranker) Train(tr *trace.Trace) {
	for i := range tr.Requests {
		r.counts[tr.Requests[i].Path]++
	}
}

// Age decays all counts, dropping entries that become negligible.
func (r *Ranker) Age() {
	for p, c := range r.counts {
		c *= r.decay
		if c < 0.01 {
			delete(r.counts, p)
		} else {
			r.counts[p] = c
		}
	}
}

// Count returns the current (possibly decayed) request count for path.
func (r *Ranker) Count(path string) float64 { return r.counts[path] }

// Len returns the number of tracked paths.
func (r *Ranker) Len() int { return len(r.counts) }

// Entry is one row of the rank table.
type Entry struct {
	Path  string
	Count float64
}

// Table returns the rank table sorted by descending count (Algorithm 3's
// "Sort(rank_table)"), ties broken by path for determinism.
func (r *Ranker) Table() []Entry { return r.TableInto(nil) }

// TableInto is Table built in buf's storage, which is grown when it is
// too small: a caller that ranks every tick passes the previous tick's
// table back and allocates nothing.
func (r *Ranker) TableInto(buf []Entry) []Entry {
	out := slices.Grow(buf[:0], len(r.counts))
	for p, c := range r.counts {
		out = append(out, Entry{Path: p, Count: c})
	}
	slices.SortFunc(out, func(a, b Entry) int {
		switch {
		case a.Count > b.Count:
			return -1
		case a.Count < b.Count:
			return 1
		}
		return strings.Compare(a.Path, b.Path)
	})
	return out
}

// Top returns the n most popular paths.
func (r *Ranker) Top(n int) []string {
	t := r.Table()
	if n > len(t) {
		n = len(t)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = t[i].Path
	}
	return out
}
