package mining

import (
	"math"
	"math/big"
	"strconv"
	"testing"

	"prord/internal/randutil"
)

// TestFsumIsCorrectlyRounded holds the partials accumulator to
// math/big's exact sum, rounded once, over counts of widely spread
// magnitude, sums that land on a halfway point, and every order of one
// set of addends.
func TestFsumIsCorrectlyRounded(t *testing.T) {
	exact := func(xs []float64) float64 {
		acc := new(big.Float).SetPrec(2200)
		for _, x := range xs {
			acc.Add(acc, big.NewFloat(x))
		}
		f, _ := acc.Float64()
		return f
	}
	var s fsum
	check := func(xs []float64) {
		t.Helper()
		s.reset()
		for _, x := range xs {
			s.add(x)
		}
		if got, want := s.total(), exact(xs); got != want {
			t.Fatalf("fsum of %v = %v, want %v", xs, got, want)
		}
	}
	check(nil)
	check([]float64{0.01})
	// 2^53 + 1 + 2^-30: the naive sum rounds the 1 away, the exact sum
	// lies just past the halfway point and rounds up.
	check([]float64{1 << 53, 1, 0x1p-30})
	check([]float64{0x1p-30, 1, 1 << 53})
	check([]float64{1 << 53, 1, 1, 1})
	// 1e16 + 1 is halfway between two float64s. Alone it rounds to even
	// (down); any more above it must round up, which only the final
	// half-even pass over the partials sees.
	check([]float64{1e16, 1})
	check([]float64{1e16, 1, 1e-16})
	check([]float64{1e-16, 1, 1e16})
	check([]float64{1e300, 1e-300, 1e300, 3})
	rng := randutil.New(9)
	xs := make([]float64, 0, 2000)
	for round := 0; round < 200; round++ {
		xs = xs[:0]
		for n := 1 + rng.Intn(2000); n > 0; n-- {
			x := rng.Float64() * math.Pow(2, float64(rng.Intn(80)-40))
			if rng.Intn(3) == 0 {
				x = math.Round(x*8) / 8 // ties and exact binary fractions
			}
			xs = append(xs, x)
		}
		check(xs)
		for i := len(xs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			xs[i], xs[j] = xs[j], xs[i]
		}
		check(xs)
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.reset()
		for _, x := range xs {
			s.add(x)
		}
		_ = s.total()
	}); allocs != 0 {
		t.Errorf("a warm accumulator allocates %v times a sum", allocs)
	}
}

// TestRankFloodIsBounded is the rank table's half of the dispatch
// core's TestFileFloodIsBounded: a flood of distinct unknown paths
// interns at most maxLiveRows rows beyond the trained ones, the trained
// paths keep counting, and Observe allocates nothing once the table is
// full, whether the path is known or not.
func TestRankFloodIsBounded(t *testing.T) {
	r := NewRanker(0.5)
	r.Train(seqTrace([]string{"/a", "/b", "/a"}, []string{"/c"}))
	trained := r.Rows()
	const flood = 200_000
	for i := 0; i < flood; i++ {
		r.Observe("/flood/" + strconv.Itoa(i) + ".html")
	}
	if got, want := r.Rows(), trained+maxLiveRows; got != want {
		t.Fatalf("after %d distinct paths the table has %d rows, want %d", flood, got, want)
	}
	if got, want := r.Len(), trained+maxLiveRows; got != want {
		t.Fatalf("%d live rows, want %d", got, want)
	}
	first, past := "/flood/0.html", "/flood/"+strconv.Itoa(flood-1)+".html"
	r.Observe("/a")
	r.Observe(first)
	r.Observe(past)
	if r.Count("/a") != 3 || r.Count(first) != 2 || r.Count(past) != 0 {
		t.Fatalf("counts /a=%v first=%v past=%v; want 3, 2 and 0", r.Count("/a"), r.Count(first), r.Count(past))
	}
	// Aging empties the live list but gives no row back: a path met
	// again counts in its old row, and the cap still holds.
	for i := 0; i < 10; i++ {
		r.Age()
	}
	if r.Len() != 0 || r.Rows() != trained+maxLiveRows {
		t.Fatalf("after aging: %d live rows of %d, want 0 of %d", r.Len(), r.Rows(), trained+maxLiveRows)
	}
	r.Observe(first)
	r.Observe(past)
	if r.Count(first) != 1 || r.Count(past) != 0 || r.Len() != 1 {
		t.Fatalf("after aging: first=%v past=%v live=%d; want 1, 0 and 1", r.Count(first), r.Count(past), r.Len())
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Observe("/b")
		r.Observe(first)
		r.Observe(past)
	}); allocs != 0 {
		t.Errorf("Observe on a full table allocates %v times", allocs)
	}
}
