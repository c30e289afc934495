package trace

import (
	"cmp"
	"slices"
	"time"
)

// SessionScript is one persistent connection's request sequence in
// arrival order: the unit of closed-loop replay. Reqs holds indices into
// the trace's request slice, so a script stays cheap even for long
// sessions.
type SessionScript struct {
	// ID is the trace's session id.
	ID int
	// Client is the client host carrying the session.
	Client string
	// Start is the session's first request arrival offset.
	Start time.Duration
	// Reqs are indices into Trace.Requests, ordered by arrival time.
	Reqs []int
}

// Sessions groups the trace's requests by session: one script per
// session, in ascending session id, each script's Reqs in arrival order
// and carved from one backing array, its capacity ending where its
// session does, so appending to one copies it out. Grouping is one
// map-free pass: when the ids span no more values than there are
// requests (FromCLF and Generate number sessions densely, and Split
// keeps each half dense), a counting sort over the id range that reads
// the requests in order and allocates three slices however many
// sessions there are; sparser ids sort the indices by (session, index).
func (t *Trace) Sessions() []SessionScript {
	rs := t.Requests
	if len(rs) == 0 {
		return nil
	}
	lo, hi := rs[0].Session, rs[0].Session
	for i := range rs {
		lo, hi = min(lo, rs[i].Session), max(hi, rs[i].Session)
	}
	// idx is the request indices by (session, index); ends[g] is where
	// the g-th session's indices end in it.
	idx := make([]int, len(rs))
	var ends []int
	if uint(hi-lo) < uint(len(rs)) {
		// next[s-lo] counts session s's requests, then holds where its
		// next index goes, and once idx is filled, where its indices end.
		next := make([]int, hi-lo+1)
		for i := range rs {
			next[rs[i].Session-lo]++
		}
		n := 0
		for k, c := range next {
			next[k] = n
			n += c
		}
		for i := range rs {
			k := rs[i].Session - lo
			idx[next[k]] = i
			next[k]++
		}
		// An id with no request ends where the id before it does; ends
		// overwrites next only where it has been read.
		ends = next[:0]
		for prev, k := 0, 0; k < len(next); k++ {
			if e := next[k]; e > prev {
				ends, prev = append(ends, e), e
			}
		}
	} else {
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int {
			if c := cmp.Compare(rs[a].Session, rs[b].Session); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for j := 1; j <= len(idx); j++ {
			if j == len(idx) || rs[idx[j]].Session != rs[idx[j-1]].Session {
				ends = append(ends, j)
			}
		}
	}
	scripts := make([]SessionScript, len(ends))
	start := 0
	for g, stop := range ends {
		first := &rs[idx[start]]
		scripts[g] = SessionScript{ID: first.Session, Client: first.Client, Start: first.Time, Reqs: idx[start:stop:stop]}
		start = stop
	}
	return scripts
}

// SessionScripts is Sessions in replay order: by first arrival, ties by
// session id. The order is deterministic, so replaying the scripts
// reproduces the same request sequence on every run.
func (t *Trace) SessionScripts() []SessionScript {
	scripts := t.Sessions()
	slices.SortFunc(scripts, func(a, b SessionScript) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return scripts
}
