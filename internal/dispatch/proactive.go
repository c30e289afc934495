package dispatch

import (
	"time"

	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/trace"
)

// PlanProactive runs PRORD's proactive pass after a main page was
// served by a backend: bundle prefetch of the page's embedded objects
// (§4.1), navigation prefetch of the predicted next page group
// (Algorithm 2), and the one-shot category prefetch once a session's
// access path identifies the user's group (§4.1). Every admitted file
// is marked prefetched at the target backend before the plan is
// returned; the adapter executes the transfers (one batched disk read
// per trigger in the simulator, HTTP hints in the live front-end) and
// reports failures back through UnmarkPrefetch.
//
// From the Elevated tier up the whole pass is shed (counted in
// PrefetchShed) — speculative work goes first under pressure. ok is
// false when nothing was planned.
func (c *Core) PlanProactive(key string, server int, page string, now time.Time) (Plan, bool) {
	if !c.cfg.Features.any() || c.cfg.Miner == nil || trace.IsEmbeddedPath(page) {
		return Plan{}, false
	}
	if c.est != nil && c.Tier() >= overload.Elevated {
		c.stats.prefetchShed.Add(1)
		return Plan{}, false
	}
	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	st, ok := sh.byKey[key]
	var id int
	if ok {
		id = st.id
	}
	sh.mu.Unlock()
	if !ok {
		return Plan{}, false
	}

	plan := Plan{Server: server}
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
			group := append([]string{pred.Page}, c.cfg.Miner.Bundles.Objects(pred.Page)...)
			plan.Nav = c.admitGroup(server, group)
		}
	}
	if c.cfg.Features.GroupPrefetch && c.cfg.Miner.Categorizer != nil {
		plan.Group = c.groupPrefetch(sh, st, server, page)
	}
	return plan, len(plan.Bundle)+len(plan.Nav)+len(plan.Group) > 0
}

// observeNav advances a connection's navigation window with the new
// page, trains the model in place on the transition (Algorithm 2's
// online tracking) and predicts the connection's next page.
func (c *Core) observeNav(id int, page string) (mining.Prediction, bool) {
	c.trackMu.Lock()
	defer c.trackMu.Unlock()
	return c.tracker.Observe(id, page)
}

// groupPrefetch implements §4.1's category-driven prefetching: once a
// connection's access path identifies the user's group with confidence
// ("the longer the comparison paths are, the better the confidence of
// the predicted category"), the group's characteristic pages are pulled
// into the serving backend's memory. Fires at most once per connection.
func (c *Core) groupPrefetch(sh *sessionShard, st *session, server int, page string) []string {
	cat := c.cfg.Miner.Categorizer
	sh.mu.Lock()
	if st.classified {
		sh.mu.Unlock()
		return nil
	}
	pages := append(st.pages, page)
	if len(pages) > 8 {
		pages = pages[len(pages)-8:]
	}
	st.pages = pages
	pages = append([]string(nil), pages...)
	sh.mu.Unlock()
	if len(pages) < 2 {
		return nil
	}
	group, conf := cat.Classify(pages)
	if conf < 0.8 {
		return nil
	}
	sh.mu.Lock()
	st.classified = true
	sh.mu.Unlock()
	return c.admitGroup(server, cat.TopPages(group, 4))
}

// admitGroup applies the navigation-prefetch admission chain to a page
// group: the adapter's per-backend budget (the simulator skips
// prefetching into a disk loaded with demand work), a cold filter
// (files resident — or already marked prefetched — anywhere are
// skipped: the dispatcher routes requests to existing holders, so a
// duplicate copy would only churn the disk), then per-file admission.
func (c *Core) admitGroup(server int, group []string) []string {
	if c.cfg.NavBudget != nil && !c.cfg.NavBudget(server) {
		return nil
	}
	var out []string
	for _, file := range group {
		if !c.cold(file) {
			continue
		}
		if c.admitPrefetch(server, file) {
			out = append(out, file)
		}
	}
	return out
}

// cold reports whether no backend holds file and no prefetch of it is
// marked anywhere.
func (c *Core) cold(file string) bool {
	f := c.fileShardFor(file)
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
	f := c.fileShardFor(file)
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
