package metrics

import "math"

// Round rounds x to the given number of decimal digits, normalizing the
// negative-zero representation so encodings stay byte-stable.
func Round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	r := math.Round(x*p) / p
	if r == 0 {
		return 0 // fold -0 into 0
	}
	return r
}

// Skew returns max/mean over per-backend counts (1.0 = perfectly
// balanced, 0 with no traffic), rounded to three decimals.
func Skew(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total, max int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return Round(float64(max)/mean, 3)
}
