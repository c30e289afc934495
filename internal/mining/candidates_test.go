package mining

import (
	"sort"
	"strings"

	"prord/internal/trace"
)

// Algorithm 1 (make_candidate_path) read literally, kept as the
// reference TestModelContextsAreCandidatePaths holds the n-order model
// to: every context the model learns is a link-following path of the
// trace's link graph.

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
