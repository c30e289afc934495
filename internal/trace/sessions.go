package trace

import (
	"sort"
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

// SessionScripts groups the trace into per-session replay scripts,
// ordered by first arrival (ties by session id). The order is
// deterministic, so replaying the scripts reproduces the same request
// sequence on every run.
func (t *Trace) SessionScripts() []SessionScript {
	byID := t.Sessions()
	scripts := make([]SessionScript, 0, len(byID))
	for id, idxs := range byID {
		first := &t.Requests[idxs[0]]
		scripts = append(scripts, SessionScript{
			ID:     id,
			Client: first.Client,
			Start:  first.Time,
			Reqs:   idxs,
		})
	}
	sort.Slice(scripts, func(i, j int) bool {
		if scripts[i].Start != scripts[j].Start {
			return scripts[i].Start < scripts[j].Start
		}
		return scripts[i].ID < scripts[j].ID
	})
	return scripts
}
