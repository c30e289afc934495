package dispatch

import (
	"time"

	"prord/internal/trace"
)

// pickTarget picks the best alternative backend for path, excluding
// backend exclude: least-loaded among accepting backends the locality
// state says hold the file (replication and prefetch make a holder
// likely), then least-loaded accepting, then — unless acceptOnly —
// least-loaded merely-available (degraded; a hard failover must land
// somewhere). Shared by Rebook's failover
// retry and HedgeTarget so both prefer a warm replica over a cold
// least-loaded backend.
func (c *Core) pickTarget(path string, exclude int, acceptOnly bool, now time.Time) (int, bool) {
	avail, navail := c.availMask(nil, now)
	if navail == 0 {
		return -1, false
	}
	holder := make([]bool, len(avail))
	f := c.fileShardFor(path)
	f.mu.Lock()
	for i := range holder {
		if avail[i] && (f.residentHere(c.cfg.Exact, i, path) || f.prefetched[path][i]) {
			holder[i] = true
		}
	}
	f.mu.Unlock()
	accepts := func(i int) bool { return !c.degraded(i) }
	pick := func(needHolder, needAccept bool) (int, bool) {
		best, found := -1, false
		for i := range avail {
			if i == exclude || !avail[i] {
				continue
			}
			if needHolder && !holder[i] {
				continue
			}
			if needAccept && !accepts(i) {
				continue
			}
			if !found || c.loadOf(i) < c.loadOf(best) {
				best, found = i, true
			}
		}
		return best, found
	}
	if s, ok := pick(true, true); ok {
		return s, true
	}
	if s, ok := pick(false, true); ok {
		return s, true
	}
	if acceptOnly {
		return -1, false
	}
	return pick(false, false)
}

// HedgeTarget picks the backend for a hedged backup request on path:
// the best accepting, non-degraded backend other than the primary,
// preferring one that already holds the file. ok is false when no
// backend is worth hedging to and the caller should skip the hedge.
// The choice does not book anything — pair it with TryBeginHedge.
func (c *Core) HedgeTarget(path string, primary int, now time.Time) (int, bool) {
	s, ok := c.pickTarget(path, primary, true, now)
	if !ok {
		return -1, false
	}
	return s, true
}

// TryBeginHedge books a hedged backup attempt for path on server,
// respecting limit outstanding hedges per backend (limit <= 0:
// uncapped). The booking mirrors a Route booking's load and in-flight
// state but binds no session and emits no decision record, so hedging
// never perturbs the decision stream differential tests compare. A
// false return means the backend is at its hedge cap and nothing was
// booked. Every true return must be paired with exactly one
// FinishHedge.
func (c *Core) TryBeginHedge(server int, path string, limit int) bool {
	if server < 0 || server >= c.cfg.Backends {
		return false
	}
	if limit > 0 {
		if n := c.hedges[server].Add(1); n > int64(limit) {
			c.hedges[server].Add(-1)
			return false
		}
	} else {
		c.hedges[server].Add(1)
	}
	c.loads[server].Add(1)
	c.stats.hedgesFired.Add(1)
	f := c.fileShardFor(path)
	f.mu.Lock()
	incFlight(f.inflight, path, server)
	if !c.cfg.Exact && !trace.IsDynamicPath(path) {
		// The backend will have the file hot after serving the hedge,
		// exactly like a Route booking.
		f.locality[server].Insert(path, 1)
		delSet(f.prefetched, path, server)
	}
	f.mu.Unlock()
	return true
}

// FinishHedge releases a hedged attempt's booking. failed marks a
// backend error or cancellation before headers — the optimistic
// locality claim drops, as in Done. won marks that the hedge delivered
// the response and the primary was canceled; it counts toward
// Stats.HedgeWins.
func (c *Core) FinishHedge(server int, path string, failed, won bool) {
	if server < 0 || server >= c.cfg.Backends {
		return
	}
	c.hedges[server].Add(-1)
	c.loads[server].Add(-1)
	f := c.fileShardFor(path)
	f.mu.Lock()
	decFlight(f.inflight, path, server)
	if failed && !c.cfg.Exact {
		f.locality[server].Remove(path)
		delSet(f.prefetched, path, server)
	}
	f.mu.Unlock()
	if won {
		c.stats.hedgeWins.Add(1)
	}
}

// HedgeLoad returns a backend's outstanding hedged attempts (tests and
// stats endpoints).
func (c *Core) HedgeLoad(server int) int {
	if server < 0 || server >= len(c.hedges) {
		return 0
	}
	return int(c.hedges[server].Load())
}
