package mining

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"prord/internal/trace"
)

// maxLiveRows is how many paths beyond the trained ones the rank table
// interns, the dispatch core's bound: a path first met past the cap is
// never counted, so a flood of unique URLs cannot grow the table.
const maxLiveRows = 1 << 16

// Ranker maintains the popularity rank table Algorithm 3's replication is
// driven by. It combines offline analysis (Train) with dynamic online
// tracking (Observe) and exponential decay so the table reflects "the
// recent history" (§4.1.2) rather than all-time counts. Each path is
// interned once to a row id, which is never given back.
type Ranker struct {
	ids     map[string]int32
	paths   []string  // by row
	counts  []float64 // by row; 0 for a row that is not live
	live    []int32   // the rows with a count, in no particular order
	trained int       // rows Train and Load interned, outside the cap
	decay   float64   // multiplier applied by Age
	sum     fsum      // Head's accumulator, reused
}

// NewRanker returns an empty ranker. decay is the multiplicative factor
// Age applies to every count (0 < decay <= 1); values outside that range
// fall back to 0.5.
func NewRanker(decay float64) *Ranker {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	return &Ranker{ids: make(map[string]int32), decay: decay}
}

// Observe registers one request for path.
func (r *Ranker) Observe(path string) { r.add(path, 1, false) }

// Train registers every request in a trace.
func (r *Ranker) Train(tr *trace.Trace) {
	for i := range tr.Requests {
		r.add(tr.Requests[i].Path, 1, true)
	}
}

// add adds c > 0 to path's count, making its row live. A path without a
// row is interned, outside the cap when trained.
func (r *Ranker) add(path string, c float64, trained bool) {
	row, ok := r.ids[path]
	if !ok {
		if !trained && len(r.paths) >= r.trained+maxLiveRows {
			return
		}
		if trained {
			r.trained++
		}
		row = int32(len(r.paths))
		r.ids[path] = row
		r.paths = append(r.paths, path)
		r.counts = append(r.counts, 0)
	}
	if r.counts[row] == 0 {
		r.live = append(r.live, row)
	}
	r.counts[row] += c
}

// Age decays all counts, dropping rows whose count becomes negligible
// from the live list.
func (r *Ranker) Age() {
	keep := r.live[:0]
	for _, row := range r.live {
		if r.counts[row] *= r.decay; r.counts[row] < 0.01 {
			r.counts[row] = 0
		} else {
			keep = append(keep, row)
		}
	}
	r.live = keep
}

// snapshot returns the live counts by path, Save's form of the table.
func (r *Ranker) snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.live))
	for _, row := range r.live {
		out[r.paths[row]] = r.counts[row]
	}
	return out
}

// load interns a saved table's paths in path order, as trained rows.
// A count that is not positive is not a live row and is skipped.
func (r *Ranker) load(counts map[string]float64) {
	paths := make([]string, 0, len(counts))
	for p := range counts {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if c := counts[p]; c > 0 {
			r.add(p, c, true)
		}
	}
}

// Len returns the number of live rows: paths with a count.
func (r *Ranker) Len() int { return len(r.live) }

// Rows returns the number of interned rows, live or not: the row ids.
func (r *Ranker) Rows() int { return len(r.paths) }

// Row returns path's row id, if path has one.
func (r *Ranker) Row(path string) (int, bool) {
	row, ok := r.ids[path]
	return int(row), ok
}

// Path returns row's path.
func (r *Ranker) Path(row int) string { return r.paths[row] }

// CountOf returns row's current count, 0 once the row is not live.
func (r *Ranker) CountOf(row int) float64 { return r.counts[row] }

// Compare orders rows as Algorithm 3's sorted rank table does: by count
// descending, ties broken by path.
func (r *Ranker) Compare(a, b int) int {
	if c := cmp.Compare(r.counts[b], r.counts[a]); c != 0 {
		return c
	}
	return strings.Compare(r.paths[a], r.paths[b])
}

// Head returns, built in dst's storage, the n rows that head the sorted
// rank table, and the correctly rounded total of every live count, which
// no order of the rows moves. One pass over the live rows keeps the n
// best in a bounded heap, and only those are sorted.
func (r *Ranker) Head(dst []int, n int) ([]int, float64) {
	h := dst[:0]
	r.sum.reset()
	for _, live := range r.live {
		row := int(live)
		r.sum.add(r.counts[row])
		if len(h) < n {
			if h = append(h, row); len(h) == n {
				for i := n/2 - 1; i >= 0; i-- {
					r.down(h, i)
				}
			}
		} else if n > 0 && r.counts[row] >= r.counts[h[0]] && r.Compare(row, h[0]) < 0 {
			h[0] = row
			r.down(h, 0)
		}
	}
	slices.SortFunc(h, r.Compare)
	return h, r.sum.total()
}

// down sifts h[i] down the heap, whose every row sorts no earlier than
// its children, so h[0] is the kept row that sorts last.
func (r *Ranker) down(h []int, i int) {
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && r.Compare(h[c], h[last]) > 0 {
				last = c
			}
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// Top returns the n most popular paths.
func (r *Ranker) Top(n int) []string {
	rows, _ := r.Head(nil, n)
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = r.paths[row]
	}
	return out
}

// fsum sums float64s exactly, as non-overlapping partial sums of
// increasing magnitude, and rounds once (Shewchuk's algorithm, as in
// Python's math.fsum). A warm accumulator allocates nothing.
type fsum struct{ partials []float64 }

func (s *fsum) reset() { s.partials = s.partials[:0] }

// add adds x, which must be finite.
func (s *fsum) add(x float64) {
	i := 0
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.partials[i] = lo
			i++
		}
		x = hi
	}
	s.partials = append(s.partials[:i], x)
}

// total returns the sum of everything added, rounded to nearest even.
func (s *fsum) total() float64 {
	p, n := s.partials, len(s.partials)
	var hi, lo float64
	if n > 0 {
		n--
		hi = p[n]
	}
	for n > 0 {
		x, y := hi, p[n-1]
		n--
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// lo exactly half an ulp of hi, with the next partial of its sign:
	// the exact sum lies past the halfway point, so round away.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
