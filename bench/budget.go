package main

import (
	"fmt"
	"io"
)

// costs are the per-operation costs the layer drives measured, in ns.
type costs struct {
	routeDone, planProactive, connOpenClose float64
	// policyRoute is the policy's cost inside the Route drive, so that
	// it can be taken out of routeDone; the run's own policy.route_ns,
	// read in situ with cold caches, is several times that.
	policyRoute, miningObserve        float64
	detectorObserve, estimatorObserve float64
	lruGetPut                         float64
}

// calls are how many of each operation one request makes on the
// workload, as the run counted them.
type calls struct {
	policyPerReq float64 // policy.Route calls
	pagesPerReq  float64 // main pages: one PlanProactive and one Tracker.Observe each
	connsPerReq  float64 // new client connections: one first-touch Route each
}

// budgetLine is one layer's share of a request.
type budgetLine struct {
	layer string
	ns    float64
}

// decisionBudget attributes a request's decision-path time to the
// layers, each charged its self time: the policy runs inside Route and
// the tracker inside PlanProactive, so dispatch is what the drives
// measured around them minus what they measured inside.
func decisionBudget(c costs, n calls) []budgetLine {
	policy := c.policyRoute * n.policyPerReq
	mining := c.miningObserve * n.pagesPerReq
	firstTouch := c.connOpenClose - c.routeDone
	if firstTouch < 0 {
		firstTouch = 0
	}
	dispatch := c.routeDone + c.planProactive*n.pagesPerReq + firstTouch*n.connsPerReq - policy - mining
	if dispatch < 0 {
		dispatch = 0
	}
	return []budgetLine{
		{"dispatch", dispatch},
		{"policy", policy},
		{"mining", mining},
	}
}

// withRest appends the part of total that no line accounts for.
func withRest(lines []budgetLine, total float64, rest string) []budgetLine {
	for _, l := range lines {
		total -= l.ns
	}
	return append(lines, budgetLine{rest, total})
}

// selfRow is one span layer of the live budget, in microseconds: its
// self time in a median request, and on average.
type selfRow struct {
	layer        string
	median, mean float64
}

// printLiveBudget writes the budget table of a live workload: where
// the client-seen time of a request goes, then where the front-end's
// own share goes.
func printLiveBudget(w io.Writer, workload string, requests int, rows []selfRow, seenMedian, seenMean float64, inside []budgetLine) {
	fmt.Fprintf(w, "budget: %s, per request, traced pass, %d requests\n", workload, requests)
	fmt.Fprintf(w, "  %-48s %14s %10s %8s\n", "layer (self time)", "median req us", "mean us", "share")
	var sumMedian, sumMean float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-48s %14.1f %10.1f %7.1f%%\n", r.layer, r.median, r.mean, 100*ratio(r.mean, seenMean))
		sumMedian += r.median
		sumMean += r.mean
	}
	fmt.Fprintf(w, "  %-48s %14.1f %10.1f\n", "sum of layers", sumMedian, sumMean)
	fmt.Fprintf(w, "  %-48s %14.1f %10.1f   (sum / client-seen median = %.3f)\n", "client-seen", seenMedian, seenMean, ratio(sumMedian, seenMedian))
	fmt.Fprintf(w, "  inside httpfront (warm ns per operation x operations per request):\n")
	for _, l := range inside {
		fmt.Fprintf(w, "    %-46s %14.2f us\n", l.layer, l.ns/1000)
	}
}

// printSimBudget writes the budget table of sim-paper: the layers run
// in series on one goroutine, so a layer's share is its cost over the
// run's cost per request.
func printSimBudget(w io.Writer, workload string, requests int, runNsPerReq float64, lines []budgetLine) {
	fmt.Fprintf(w, "budget: %s, per request, traced repetition, %d requests, %.0f ns per request\n", workload, requests, runNsPerReq)
	for _, l := range lines {
		fmt.Fprintf(w, "  %-46s %12.0f ns %7.1f%%\n", l.layer, l.ns, 100*ratio(l.ns, runNsPerReq))
	}
}
