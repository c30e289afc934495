package dispatch

import "time"

// pickTarget picks the best alternative backend for path, excluding
// backend exclude: least-loaded among accepting backends the locality
// state says hold the file (replication and prefetch make a holder
// likely), then least-loaded accepting, then — unless acceptOnly —
// least-loaded merely-available (degraded; a hard failover must land
// somewhere). Shared by Rebook's failover
// retry and HedgeTarget so both prefer a warm replica over a cold
// least-loaded backend.
func (c *Core) pickTarget(path string, exclude int, acceptOnly bool, now time.Time) (int, bool) {
	avail := c.availMask(now).Remove(exclude)
	f := c.fileShardFor(path)
	f.mu.Lock()
	holders := f.believed(c.cfg.Exact, path, avail) | f.peek(path).prefetched&avail
	f.mu.Unlock()
	accept := c.healthy(avail)
	if s, ok := c.leastLoaded(holders & accept); ok {
		return s, true
	}
	if s, ok := c.leastLoaded(accept); ok || acceptOnly {
		return s, ok
	}
	return c.leastLoaded(avail)
}

// HedgeTarget picks the backend for a hedged backup request on path:
// the best accepting, non-degraded backend other than the primary,
// preferring one that already holds the file. ok is false (and the
// backend -1) when no backend is worth hedging to and the caller should
// skip the hedge. The choice does not book anything — pair it with
// TryBeginHedge.
func (c *Core) HedgeTarget(path string, primary int, now time.Time) (int, bool) {
	return c.pickTarget(path, primary, true, now)
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
	c.stats.hedgesFired.Add(1)
	c.book(server, path)
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
	c.release(server, path, failed)
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
