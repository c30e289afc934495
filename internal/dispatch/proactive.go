package dispatch

import (
	"time"

	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
)

// PlanProactive runs PRORD's proactive pass after a main page was
// served by a backend: bundle prefetch of the page's embedded objects
// (§4.1) and navigation prefetch of the predicted next page group
// (Algorithm 2). Every admitted file is marked prefetched at the target
// backend before the plan is returned; the adapter executes the
// transfers (one batched disk read per trigger in the simulator, HTTP
// hints in the live front-end) and reports failures back through
// UnmarkPrefetch.
//
// From the Elevated tier up the whole pass is shed (counted in
// PrefetchShed) — speculative work goes first under pressure. ok is
// false when nothing was planned.
func (c *Core) PlanProactive(key string, server int, page string, now time.Time) (plan Plan, ok bool) {
	ok = c.PlanInto(&plan, key, server, page, now)
	return plan, ok
}

// PlanInto is PlanProactive filling a plan the caller owns: its lists
// are emptied and refilled in place, so reusing one plan allocates
// nothing once the lists have grown.
func (c *Core) PlanInto(plan *Plan, key string, server int, page string, now time.Time) bool {
	*plan = Plan{Bundle: plan.Bundle[:0], Nav: plan.Nav[:0]}
	if !c.cfg.Features.any() || c.cfg.Miner == nil {
		return false
	}
	pid, pfs := c.intern(page)
	if pfs.embedded {
		return false
	}
	if c.est != nil && c.Tier() >= overload.Elevated {
		c.stats.prefetchShed.Add(1)
		return false
	}
	sh := &c.sessions
	id := -1
	sh.mu.Lock()
	if st := sh.find(key); st != nil {
		id = st.id
	}
	sh.mu.Unlock()
	if id < 0 {
		return false
	}

	plan.Server = server
	if c.cfg.Features.Bundle {
		// Bundle prefetch is neither budgeted nor cold-filtered: the
		// page's objects are requested by the browser within milliseconds.
		plan.Bundle = c.admitPrefetch(server, c.files.objects(pfs.fileMeta), false, plan.Bundle)
	}
	// A cold page is neither learned nor predicted from: past the intern
	// cap, a flood of distinct paths must not grow the tracker's model.
	if c.cfg.Features.NavPrefetch && c.tracker != nil && pid != policy.ColdFile {
		pred, predicted := c.observeNav(id, page)
		if predicted && c.cfg.Miner.ShouldPrefetch(pred) {
			// §4.1: the backend prefetches "a specific group of data
			// containing currently requested pages" — the predicted page
			// together with its embedded objects.
			plan.Nav = c.admitGroup(plan.Nav, server, pred.Page)
		}
	}
	return len(plan.Bundle)+len(plan.Nav) > 0
}

// observeNav advances a connection's navigation window with the new
// page, trains the model in place on the transition (Algorithm 2's
// online tracking) and predicts the connection's next page.
func (c *Core) observeNav(id int, page string) (mining.Prediction, bool) {
	c.trackMu.Lock()
	defer c.trackMu.Unlock()
	return c.tracker.Observe(id, page)
}

// admitGroup applies the navigation-prefetch admission chain to the
// page group of head — head followed by its bundle's objects, admitted
// in that order and appended to out: the adapter's per-backend budget
// (the simulator skips prefetching into a disk loaded with demand
// work), then per-file admission with the cold filter (files resident —
// or already marked prefetched — anywhere are skipped: the dispatcher
// routes requests to existing holders, so a duplicate copy would only
// churn the disk).
func (c *Core) admitGroup(out []string, server int, head string) []string {
	if c.cfg.NavBudget != nil && !c.cfg.NavBudget(server) {
		return out
	}
	id, fs := c.intern(head)
	out = c.admitPrefetch(server, []FileID{id}, true, out)
	return c.admitPrefetch(server, c.files.objects(fs.fileMeta), true, out)
}

// admitPrefetch registers a prefetch placement at server for each file
// of ids, in order, that is eligible — not cold, cacheable, passing the
// adapter filter and, with coldOnly, held and marked nowhere — absent
// from the target backend and not already marked there. Each admitted
// file's path is appended to out, for the adapter to fetch. The file
// table's mutex is held throughout but for the adapter filter's calls.
func (c *Core) admitPrefetch(server int, ids []FileID, coldOnly bool, out []string) []string {
	f := &c.files
	f.mu.Lock()
	for _, id := range ids {
		if id < 0 {
			continue // a cold path is never prefetched
		}
		path := f.paths[id]
		if c.cfg.Prefetchable != nil {
			f.mu.Unlock()
			ok := c.cfg.Prefetchable(path)
			f.mu.Lock()
			if !ok {
				continue
			}
		}
		switch fs := &f.files[id]; {
		case fs.dynamic: // generated content cannot be prefetched
		case coldOnly && !(fs.held | fs.prefetched).Empty():
		case fs.held.Has(server) || fs.prefetched.Has(server): // held, or already being prefetched here
		default:
			fs.prefetched = fs.prefetched.Add(server)
			c.stats.prefetches.Add(1)
			out = append(out, path)
		}
	}
	f.mu.Unlock()
	return out
}
