package mining

import (
	"sort"
	"strings"

	"prord/internal/trace"
)

// LinkGraph is the "directly linked" page relation the paper stores
// instead of all l^(n+1) sequence combinations (§4.1.1-i): an edge u->v
// exists when v was ever requested directly after u in some session.
type LinkGraph struct {
	links map[string][]string // adjacency, each list sorted & deduped
}

// BuildLinkGraph derives the link structure from a trace's main-page
// transitions.
func BuildLinkGraph(tr *trace.Trace) *LinkGraph {
	set := make(map[string]map[string]bool)
	for _, s := range tr.Sessions() {
		var prev string
		for _, i := range s.Reqs {
			r := &tr.Requests[i]
			if r.Embedded {
				continue
			}
			if prev != "" && prev != r.Path {
				m, ok := set[prev]
				if !ok {
					m = make(map[string]bool)
					set[prev] = m
				}
				m[r.Path] = true
			}
			prev = r.Path
		}
	}
	g := &LinkGraph{links: make(map[string][]string, len(set))}
	for u, vs := range set {
		out := make([]string, 0, len(vs))
		for v := range vs {
			out = append(out, v)
		}
		sort.Strings(out)
		g.links[u] = out
	}
	return g
}

// Links returns the pages directly linked from page.
func (g *LinkGraph) Links(page string) []string { return g.links[page] }

// Pages returns every page with outgoing links, sorted.
func (g *LinkGraph) Pages() []string {
	out := make([]string, 0, len(g.links))
	for p := range g.links {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// CandidatePaths is the output of Algorithm 1: for every page, the set of
// link-following paths of exactly the given order that end at that page.
// Keys of the inner map are ctxSep-joined paths (excluding the final
// page), i.e. the contexts under which the page may be requested next.
type CandidatePaths struct {
	Order int
	// ByPage maps ending page -> set of predecessor paths.
	ByPage map[string][]string
}

// MakeCandidatePaths is a literal implementation of Algorithm 1
// (make_candidate_path): starting from every page it walks links up to
// order steps, recording each visited path under the page it reaches.
func MakeCandidatePaths(g *LinkGraph, order int) *CandidatePaths {
	if order < 1 {
		order = 1
	}
	cp := &CandidatePaths{Order: order, ByPage: make(map[string][]string)}
	seen := make(map[string]map[string]bool)
	record := func(page, path string) {
		m, ok := seen[page]
		if !ok {
			m = make(map[string]bool)
			seen[page] = m
		}
		if !m[path] {
			m[path] = true
			cp.ByPage[page] = append(cp.ByPage[page], path)
		}
	}
	var walk func(order int, path []string, current string)
	walk = func(order int, path []string, current string) {
		if order > 0 {
			for _, b := range g.Links(current) {
				walk(order-1, append(path, b), b)
			}
			return
		}
		// Path includes current as its last element; the candidate path
		// for current is its predecessor sequence.
		record(current, strings.Join(path[:len(path)-1], ctxSep))
	}
	for _, a := range g.Pages() {
		walk(order, []string{a}, a)
	}
	for page := range cp.ByPage {
		sort.Strings(cp.ByPage[page])
	}
	return cp
}

// Paths returns the candidate predecessor paths for page.
func (cp *CandidatePaths) Paths(page string) []string { return cp.ByPage[page] }

// Total returns the total number of stored candidate paths — the memory
// cost the paper analyzes.
func (cp *CandidatePaths) Total() int {
	n := 0
	for _, ps := range cp.ByPage {
		n += len(ps)
	}
	return n
}

// DG is the Padmanabhan-Mogul dependency graph [19]: a first-order
// weighted digraph where the weight of u->v is the number of times v was
// requested within a lookahead window of w accesses after u, normalized by
// u's access count. It is the classic baseline predictor PRORD's n-order
// model is compared against.
type DG struct {
	window   int
	accesses map[string]int
	arcs     map[string]map[string]int
}

// NewDG returns an empty dependency graph with the given lookahead window
// (window >= 1; 1 means "directly follows").
func NewDG(window int) *DG {
	if window < 1 {
		window = 1
	}
	return &DG{
		window:   window,
		accesses: make(map[string]int),
		arcs:     make(map[string]map[string]int),
	}
}

// ObserveSequence trains the graph on one session's page sequence.
func (d *DG) ObserveSequence(pages []string) {
	for i, u := range pages {
		d.accesses[u]++
		for j := i + 1; j <= i+d.window && j < len(pages); j++ {
			v := pages[j]
			if v == u {
				continue
			}
			m, ok := d.arcs[u]
			if !ok {
				m = make(map[string]int)
				d.arcs[u] = m
			}
			m[v]++
		}
	}
}

// Train consumes a whole trace (main pages only).
func (d *DG) Train(tr *trace.Trace) { eachPageSequence(tr, d.ObserveSequence) }

// Predict returns the highest-confidence successor of the most recent
// page in recent. DG is first-order: only the last page matters.
func (d *DG) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	u := recent[len(recent)-1]
	total := d.accesses[u]
	m := d.arcs[u]
	if total == 0 || len(m) == 0 {
		return Prediction{}, false
	}
	best, bestCount := "", 0
	for v, c := range m {
		if c > bestCount || (c == bestCount && v < best) {
			best, bestCount = v, c
		}
	}
	conf := float64(bestCount) / float64(total)
	if conf > 1 {
		conf = 1
	}
	return Prediction{Page: best, Confidence: conf, Order: 1}, true
}

// Arcs returns the number of stored arcs (memory-cost measure).
func (d *DG) Arcs() int {
	n := 0
	for _, m := range d.arcs {
		n += len(m)
	}
	return n
}

// Predictor is the common interface of the navigation predictors: the
// paper's n-order model (PPM-style longest match), PPM with escape, the
// DG baseline, sequence rules and association rules.
type Predictor interface {
	// Predict proposes the next page given the most recent page
	// sequence. It does not keep recent, which the caller may reuse.
	Predict(recent []string) (Prediction, bool)
	// Train fits the predictor on a training trace.
	Train(tr *trace.Trace)
}

// OnlinePredictor additionally learns from the live request stream and
// reports how many recent pages its predictions consider — what the
// per-connection Tracker needs.
type OnlinePredictor interface {
	Predictor
	// ObserveSequence folds one observed page sequence into the model.
	// It does not keep pages: the Tracker passes a buffer it owns and
	// overwrites on its next call.
	ObserveSequence(pages []string)
	// Window is the number of trailing pages worth tracking per
	// connection.
	Window() int
}

// Window implements OnlinePredictor for the DG (first-order successor
// counting over its lookahead window).
func (d *DG) Window() int { return d.window }

var (
	_ Predictor       = (*Model)(nil)
	_ Predictor       = (*DG)(nil)
	_ OnlinePredictor = (*Model)(nil)
	_ OnlinePredictor = (*DG)(nil)
)
