package dispatch

import (
	"time"

	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/trace"
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
	if !c.cfg.Features.any() || c.cfg.Miner == nil || trace.IsEmbeddedPath(page) {
		return false
	}
	if c.est != nil && c.Tier() >= overload.Elevated {
		c.stats.prefetchShed.Add(1)
		return false
	}
	sh := &c.sessions
	id := -1
	sh.mu.Lock()
	if st, ok := sh.byKey[key]; ok {
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
		for _, obj := range c.cfg.Miner.Bundles.Objects(page) {
			if c.admitPrefetch(server, obj) {
				plan.Bundle = append(plan.Bundle, obj)
			}
		}
	}
	if c.cfg.Features.NavPrefetch && c.tracker != nil {
		pred, predicted := c.observeNav(id, page)
		if predicted && c.cfg.Miner.ShouldPrefetch(pred) {
			// §4.1: the backend prefetches "a specific group of data
			// containing currently requested pages" — the predicted page
			// together with its embedded objects.
			plan.Nav = c.admitGroup(plan.Nav, server, pred.Page, c.cfg.Miner.Bundles.Objects(pred.Page))
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

// admitGroup applies the navigation-prefetch admission chain to a page
// group: the adapter's per-backend budget (the simulator skips
// prefetching into a disk loaded with demand work), a cold filter
// (files resident — or already marked prefetched — anywhere are
// skipped: the dispatcher routes requests to existing holders, so a
// duplicate copy would only churn the disk), then per-file admission.
// The group is head followed by rest, admitted in that order and
// appended to out; taking the head apart spares building the group.
func (c *Core) admitGroup(out []string, server int, head string, rest []string) []string {
	if c.cfg.NavBudget != nil && !c.cfg.NavBudget(server) {
		return out
	}
	out = c.admitCold(server, head, out)
	for _, file := range rest {
		out = c.admitCold(server, file, out)
	}
	return out
}

// admitCold appends file to out if it is cold and admitted at server.
func (c *Core) admitCold(server int, file string, out []string) []string {
	if c.cold(file) && c.admitPrefetch(server, file) {
		out = append(out, file)
	}
	return out
}

// cold reports whether no backend holds file and no prefetch of it is
// marked anywhere.
func (c *Core) cold(file string) bool {
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peek(file).prefetched.Empty() && f.believed(c.cfg.Exact, file, ^ServerSet(0)).Empty()
}

// admitPrefetch registers one prefetch placement if the file is
// eligible (cacheable, passes the adapter filter), absent from the
// target backend, and not already marked there. It reports whether the
// adapter should fetch it.
func (c *Core) admitPrefetch(server int, file string) bool {
	if trace.IsDynamicPath(file) {
		return false // generated content cannot be prefetched
	}
	if c.cfg.Prefetchable != nil && !c.cfg.Prefetchable(file) {
		return false
	}
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.residentHere(c.cfg.Exact, server, file) || f.peek(file).prefetched.Has(server) {
		return false // held, or already being prefetched here
	}
	fs := f.record(file, c.cfg.Backends)
	fs.prefetched = fs.prefetched.Add(server)
	c.stats.prefetches.Add(1)
	return true
}
