// Package trace models web workloads for the PRORD cluster simulator: a
// request stream organized into persistent-connection sessions over a set
// of files, plus generators that synthesize traces statistically matched
// to the ones the paper evaluates on (Texas A&M CS department logs,
// WorldCup-98 logs and a fully synthetic trace) and converters to and from
// the Common Log Format.
package trace

import (
	"fmt"
	"sort"
	"time"
)

// Request is one HTTP request in a trace.
type Request struct {
	// Time is the request's arrival offset from the start of the trace.
	Time time.Duration
	// Session identifies the persistent HTTP/1.1 connection that carries
	// the request. Requests within a session are ordered by Time.
	Session int
	// Client is the client host name, stable across a client's sessions.
	Client string
	// Path is the requested URL path and identifies the file.
	Path string
	// Size is the response size in bytes.
	Size int64
	// Embedded reports whether this request fetches an object embedded in
	// a previously requested main page (image, applet, stylesheet...).
	Embedded bool
	// Parent is the path of the main page this object is embedded in.
	// Empty for main-page requests.
	Parent string
	// Group is the ground-truth user category of the session's user, or
	// -1 when unknown (e.g. traces loaded from real logs).
	Group int
	// Dynamic reports that the response is generated per request (CGI,
	// ...) and therefore uncacheable. The paper's §6 names dynamic
	// content as planned future work; the simulator supports it.
	Dynamic bool
}

// Trace is a complete workload: an ordered request stream plus the file
// population it references.
type Trace struct {
	Name     string
	Requests []Request
	Files    map[string]int64 // path -> size in bytes
}

// Stats summarizes a trace; it is what we calibrate generators against.
type Stats struct {
	Requests     int
	Files        int
	Sessions     int
	TotalBytes   int64
	MeanFileSize int64
	Duration     time.Duration
	EmbeddedFrac float64
}

// Stats computes summary statistics for t.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Requests = len(t.Requests)
	s.Files = len(t.Files)
	sessions := make(map[int]struct{})
	var embedded int
	for i := range t.Requests {
		r := &t.Requests[i]
		sessions[r.Session] = struct{}{}
		s.TotalBytes += r.Size
		if r.Embedded {
			embedded++
		}
	}
	s.Sessions = len(sessions)
	if len(t.Requests) > 0 {
		s.Duration = t.Requests[len(t.Requests)-1].Time - t.Requests[0].Time
		s.EmbeddedFrac = float64(embedded) / float64(len(t.Requests))
	}
	var fileBytes int64
	for _, sz := range t.Files {
		fileBytes += sz
	}
	if len(t.Files) > 0 {
		s.MeanFileSize = fileBytes / int64(len(t.Files))
	}
	return s
}

// TotalFileBytes returns the summed size of all distinct files — the size
// of the whole web site's data set.
func (t *Trace) TotalFileBytes() int64 {
	var total int64
	for _, sz := range t.Files {
		total += sz
	}
	return total
}

// Split partitions the trace at the given fraction of requests into a
// training prefix (for offline log mining) and an evaluation suffix. The
// file table is shared. frac is clamped to [0, 1].
func (t *Trace) Split(frac float64) (train, eval *Trace) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	cut := int(frac * float64(len(t.Requests)))
	train = &Trace{Name: t.Name + "/train", Requests: t.Requests[:cut], Files: t.Files}
	eval = &Trace{Name: t.Name + "/eval", Requests: t.Requests[cut:], Files: t.Files}
	return train, eval
}

// SortByTime orders the requests by arrival time, keeping the relative
// order of simultaneous requests stable.
func (t *Trace) SortByTime() {
	sort.SliceStable(t.Requests, func(i, j int) bool {
		return t.Requests[i].Time < t.Requests[j].Time
	})
}

// Validate checks internal consistency: requests sorted by time, every
// request's path present in the file table with a matching size, and
// sessions non-negative.
func (t *Trace) Validate() error {
	var last time.Duration
	for i := range t.Requests {
		r := &t.Requests[i]
		if r.Time < last {
			return fmt.Errorf("trace %s: request %d out of order (%v < %v)", t.Name, i, r.Time, last)
		}
		last = r.Time
		sz, ok := t.Files[r.Path]
		if !ok {
			return fmt.Errorf("trace %s: request %d path %q not in file table", t.Name, i, r.Path)
		}
		if sz != r.Size {
			return fmt.Errorf("trace %s: request %d size %d != file table %d", t.Name, i, r.Size, sz)
		}
		if r.Session < 0 {
			return fmt.Errorf("trace %s: request %d negative session", t.Name, i)
		}
		if r.Embedded && r.Parent == "" {
			return fmt.Errorf("trace %s: request %d embedded without parent", t.Name, i)
		}
	}
	return nil
}

// Sessions groups request indices by session id, each slice ordered by
// arrival time. It counts first and carves every session's slice out of
// one backing array, so grouping costs a handful of allocations however
// many sessions there are; each slice's capacity ends where its session
// does, so appending to one copies it out rather than overwriting the
// next.
func (t *Trace) Sessions() map[int][]int {
	// slot numbers the sessions by first appearance; next[k] holds slot
	// k's request count, then the place of its next index in backing.
	slot := make(map[int]int)
	var next []int
	for i := range t.Requests {
		s := t.Requests[i].Session
		k, seen := slot[s]
		if !seen {
			k = len(next)
			slot[s] = k
			next = append(next, 0)
		}
		next[k]++
	}
	off := 0
	for k, n := range next {
		next[k] = off
		off += n
	}
	backing := make([]int, len(t.Requests))
	for i := range t.Requests {
		k := slot[t.Requests[i].Session]
		backing[next[k]] = i
		next[k]++
	}
	// Every next[k] has advanced to its slot's end, where slot k+1 starts.
	m := make(map[int][]int, len(slot))
	for s, k := range slot {
		start := 0
		if k > 0 {
			start = next[k-1]
		}
		m[s] = backing[start:next[k]:next[k]]
	}
	return m
}

// PopularityRanking returns the distinct paths ordered by descending
// request count (ties broken by path for determinism).
func (t *Trace) PopularityRanking() []string {
	counts := make(map[string]int)
	for i := range t.Requests {
		counts[t.Requests[i].Path]++
	}
	paths := make([]string, 0, len(counts))
	for p := range counts {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if counts[paths[i]] != counts[paths[j]] {
			return counts[paths[i]] > counts[paths[j]]
		}
		return paths[i] < paths[j]
	})
	return paths
}
