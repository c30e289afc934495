package trace

import (
	"math"
	"sort"
	"time"
)

// Analysis is a statistical characterization of a workload — the numbers
// a log-mining paper reports about its traces (request/file counts,
// popularity skew, session structure) and that our generators are
// calibrated against.
type Analysis struct {
	// Stats are the basic counts.
	Stats Stats
	// ZipfTheta is the fitted Zipf popularity exponent (log-log linear
	// regression of request count on rank). Real web traces run ~0.6-1.2.
	ZipfTheta float64
	// ZipfR2 is the regression fit quality in [0, 1].
	ZipfR2 float64
	// TopDecileShare is the fraction of requests going to the most
	// popular 10% of files.
	TopDecileShare float64
	// MeanPagesPerSession counts main pages (embedded objects excluded).
	MeanPagesPerSession float64
	// MaxSessionRequests is the largest session, in requests.
	MaxSessionRequests int
	// MeanSessionGap is the mean time between consecutive session starts.
	MeanSessionGap time.Duration
	// DynamicFrac is the fraction of requests for generated content.
	DynamicFrac float64
}

// Analyze computes the workload characterization of tr.
func Analyze(tr *Trace) *Analysis {
	a := &Analysis{Stats: tr.Stats()}
	if len(tr.Requests) == 0 {
		return a
	}

	// Popularity counts sorted descending.
	counts := make(map[string]int)
	var dynamic int
	for i := range tr.Requests {
		r := &tr.Requests[i]
		counts[r.Path]++
		if r.Dynamic || IsDynamicPath(r.Path) {
			dynamic++
		}
	}
	a.DynamicFrac = float64(dynamic) / float64(len(tr.Requests))

	sorted := make([]int, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))

	// Top-decile share.
	decile := len(sorted) / 10
	if decile < 1 {
		decile = 1
	}
	var top, total int
	for i, c := range sorted {
		total += c
		if i < decile {
			top += c
		}
	}
	if total > 0 {
		a.TopDecileShare = float64(top) / float64(total)
	}

	// Zipf fit: least squares on (log rank, log count). Rank-1 ties and
	// the flat tail are both informative; use every point.
	if len(sorted) >= 3 {
		var sx, sy, sxx, sxy float64
		n := float64(len(sorted))
		for i, c := range sorted {
			x := math.Log(float64(i + 1))
			y := math.Log(float64(c))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		denom := n*sxx - sx*sx
		if denom > 0 {
			slope := (n*sxy - sx*sy) / denom
			a.ZipfTheta = -slope
			// R^2.
			meanY := sy / n
			var ssTot, ssRes float64
			intercept := (sy - slope*sx) / n
			for i, c := range sorted {
				x := math.Log(float64(i + 1))
				y := math.Log(float64(c))
				fit := intercept + slope*x
				ssRes += (y - fit) * (y - fit)
				ssTot += (y - meanY) * (y - meanY)
			}
			if ssTot > 0 {
				a.ZipfR2 = 1 - ssRes/ssTot
			}
		}
	}

	// Session structure.
	sessions := tr.Sessions()
	var pages int
	var starts []time.Duration
	for _, s := range sessions {
		a.MaxSessionRequests = max(a.MaxSessionRequests, len(s.Reqs))
		starts = append(starts, s.Start)
		for _, i := range s.Reqs {
			if !tr.Requests[i].Embedded {
				pages++
			}
		}
	}
	if len(sessions) > 0 {
		a.MeanPagesPerSession = float64(pages) / float64(len(sessions))
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if len(starts) > 1 {
		a.MeanSessionGap = (starts[len(starts)-1] - starts[0]) / time.Duration(len(starts)-1)
	}
	return a
}
