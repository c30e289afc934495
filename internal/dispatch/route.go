package dispatch

import (
	"fmt"
	"time"

	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

// Admit runs Critical-tier admission control for one demand request.
// Below Critical — or for an embedded-object request of a session that
// already has a backend (its page was admitted; refusing its images
// only breaks a response already promised) — the request is admitted
// unconditionally. At Critical it takes a gate slot; when the gate is
// full but the bounded accept queue has room the verdict is Queued and
// grant runs (on the goroutine of whichever FinishRequest frees the
// slot) when the request may proceed, unless AbandonWait withdraws it
// first. Shed means refused: counted, recorded, never routed. With the
// overload layer disabled every request is Admitted.
func (c *Core) Admit(key, path string, now time.Time, grant func()) (Verdict, *overload.Waiter) {
	if c.gate == nil {
		return Admitted, nil
	}
	bypass := false
	if trace.IsEmbeddedPath(path) {
		sh := c.sessionShardFor(key)
		sh.mu.Lock()
		if st, ok := sh.byKey[key]; ok && st.hasSrv {
			bypass = true
		}
		sh.mu.Unlock()
	}
	c.ovMu.Lock()
	tier := c.est.Tier()
	enforce := tier == overload.Critical && !bypass
	w, ok := c.gate.Enter(enforce, grant)
	c.ovMu.Unlock()
	if !ok {
		c.shed(path, tier)
		return Shed, nil
	}
	if w != nil {
		return Queued, w
	}
	return Admitted, nil
}

// AbandonWait withdraws a queued request whose wait timed out, counting
// it as shed. It reports whether the request was still queued: false
// means the slot was granted concurrently — the caller owns it and
// proceeds as admitted.
func (c *Core) AbandonWait(w *overload.Waiter, path string, now time.Time) bool {
	c.ovMu.Lock()
	ok := c.gate.Abandon(w)
	tier := c.est.Tier()
	c.ovMu.Unlock()
	if ok {
		c.shed(path, tier)
	}
	return ok
}

// shed counts one refused demand request and records the decision.
func (c *Core) shed(path string, tier overload.Tier) {
	c.stats.requests.Add(1)
	c.stats.shed.Add(1)
	if c.emitter != nil {
		c.emitter.emit(Record{
			Seq:     c.seq.Add(1),
			Conn:    -1,
			Path:    path,
			Tier:    tier,
			Verdict: Shed,
			Server:  -1,
		})
	}
}

// GateLeave releases an admission slot for a request that never routed
// (the no-backend-available path). Any queued request granted the slot
// has its grant callback run before GateLeave returns.
func (c *Core) GateLeave() {
	if c.gate == nil {
		return
	}
	c.ovMu.Lock()
	grant := c.gate.Leave()
	c.ovMu.Unlock()
	if grant != nil {
		grant()
	}
}

// FinishRequest feeds one completed demand request back to the overload
// layer: the estimator's latency signal and the gate's freed slot. Any
// queued request granted the slot has its grant callback run before
// FinishRequest returns. No-op when the layer is disabled.
func (c *Core) FinishRequest(now time.Time, latency time.Duration) {
	if c.est == nil {
		return
	}
	c.ovMu.Lock()
	c.est.End(now, latency)
	c.tierC.Store(int32(c.est.Tier()))
	grant := c.gate.Leave()
	c.ovMu.Unlock()
	if grant != nil {
		grant()
	}
}

// Route runs the Fig. 4 front-end flow for one admitted request and
// books the outcome: the session binds (or re-binds) to the chosen
// backend, loads and in-flight state update, and in optimistic mode the
// backend's locality map learns the file. Every Route with OK true must
// be paired with exactly one Done; OK false means no backend was
// available (the request was counted and released, not booked).
//
// Route takes no ranked lock: the policy inputs are fixed at New, the
// tier comes from its lock-free cache, and every mutable touch goes
// through leaf locks (session/file shards, policy stripes) or atomics.
// The per-decision masks are single words and the policy view comes
// from a pool, so the steady-state path does not allocate.
func (c *Core) Route(key, path string, size int64, now time.Time) Outcome {
	st, evicted := c.lookupSession(key)
	c.closeIDs(evicted)
	c.stats.requests.Add(1)

	// Session snapshot for classification; the shard lock is released
	// before routing so view methods can take shard locks as leaves.
	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	lastPage := st.lastPage
	sh.mu.Unlock()

	tier := c.Tier()

	// From Saturated up the ladder stops the bundle-aware dispatcher
	// bypass: requests route as plain (non-embedded) traffic. New
	// guarantees a Miner whenever a feature is on.
	embedded := false
	if tier < overload.Saturated && c.cfg.Features.Bundle && c.cfg.Miner.Bundles != nil &&
		lastPage != "" && trace.IsEmbeddedPath(path) {
		if parent, ok := c.cfg.Miner.Bundles.Parent(path); ok && parent == lastPage {
			embedded = true
		}
	}

	avail := c.wakeIfEmpty(c.availMask(now), now)
	if avail.Empty() {
		// Undo the session reservation: the request was never booked.
		sh.mu.Lock()
		if st.active > 0 {
			st.active--
		}
		sh.mu.Unlock()
		c.stats.unroutable.Add(1)
		if c.emitter != nil {
			c.emitter.emit(Record{
				Seq:     c.seq.Add(1),
				Conn:    st.id,
				Path:    path,
				Tier:    tier,
				Verdict: Admitted,
				Server:  -1,
			})
		}
		return Outcome{Conn: st.id, Server: -1, Source: -1, Tier: tier}
	}

	// From Saturated up, routing degrades to the locality-only fallback:
	// cheap, cache-friendly placement with none of PRORD's machinery.
	pol := c.cfg.Policy
	if tier >= overload.Saturated && c.cfg.Fallback != nil {
		pol = c.cfg.Fallback
	}

	accept := c.acceptMask(avail)
	view := c.getView(avail, accept)
	last, haveLast := view.LastServer(st.id)

	var dec policy.Decision
	if embedded && haveLast {
		// The forward module (Fig. 4's dashed box) lives in the front-end
		// flow, outside the policy: embedded objects follow the previous
		// request directly, whatever the distribution policy.
		dec = policy.Decision{Server: last, Source: -1}
	} else {
		dec = pol.Route(policy.Request{
			Conn:     st.id,
			Path:     path,
			Size:     size,
			Embedded: embedded,
			First:    !haveLast,
		}, view)
	}
	view.put()
	if dec.Server < 0 || dec.Server >= c.cfg.Backends {
		panic(fmt.Sprintf("dispatch: policy %s routed to invalid server %d", pol.Name(), dec.Server))
	}
	// Load-blind policies (WRR) may still pick an unavailable backend;
	// re-route to the least-loaded accepting one. Likewise a fresh
	// placement on a degraded backend moves to an accepting one — only a
	// session already pinned there may keep following its binding.
	if !avail.Has(dec.Server) || (!accept.Has(dec.Server) && !(haveLast && last == dec.Server)) {
		dec.Server, _ = c.leastLoaded(accept)
		dec.Handoff = true
	}
	if dec.Source >= 0 && !avail.Has(dec.Source) {
		dec.Source = -1
	}

	// Book the decision.
	sh.mu.Lock()
	hadServer := st.hasSrv
	prevServer := st.server
	switched := hadServer && st.server != dec.Server
	st.server = dec.Server
	st.hasSrv = true
	if !trace.IsEmbeddedPath(path) {
		st.lastPage = path
	}
	sh.mu.Unlock()
	if switched && c.degraded(prevServer) {
		// The move was the detector's doing: the old pin is gray-failing
		// and LastServer stopped honoring it.
		c.stats.grayRebinds.Add(1)
	}

	if dec.Dispatch {
		c.stats.dispatches.Add(1)
	} else if hadServer {
		c.stats.directForwards.Add(1)
	}
	if dec.Handoff {
		c.stats.handoffs.Add(1)
	}
	if switched {
		c.stats.switches.Add(1)
	}
	c.perBackend[dec.Server].Add(1)
	c.book(dec.Server, path)

	if c.est != nil {
		c.ovMu.Lock()
		c.est.Begin(now)
		c.tierC.Store(int32(c.est.Tier()))
		c.ovMu.Unlock()
	}

	out := Outcome{
		Conn:      st.id,
		Server:    dec.Server,
		Source:    dec.Source,
		Dispatch:  dec.Dispatch,
		Handoff:   dec.Handoff,
		Switched:  switched,
		Embedded:  embedded,
		HadServer: hadServer,
		Tier:      tier,
		OK:        true,
	}
	if c.emitter != nil {
		// Emitted with no lock held: the ordered emitter preserves Seq
		// order even when decisions finish out of order, and a slow
		// Recorder delays delivery, not routing.
		c.emitter.emit(Record{
			Seq:      c.seq.Add(1),
			Conn:     st.id,
			Path:     path,
			Tier:     tier,
			Verdict:  Admitted,
			Server:   dec.Server,
			Embedded: embedded,
			Dispatch: dec.Dispatch,
			Handoff:  dec.Handoff,
			Switched: switched,
			Routed:   true,
		})
	}
	return out
}

// Done releases one attempt's booking after it completes. failed marks
// a backend 5xx, transport error or crash: in optimistic mode the
// backend's locality claim for the file is dropped (the process behind
// it may have lost its memory). retried marks a failover retry; a
// successful retry counts as one completed failover.
func (c *Core) Done(key string, server int, path string, failed, retried bool) {
	c.release(server, path, failed)

	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	if st, ok := sh.byKey[key]; ok && st.active > 0 {
		st.active--
	}
	sh.mu.Unlock()

	if failed {
		c.stats.errors.Add(1)
		return
	}
	if retried {
		c.stats.failovers.Add(1)
	}
}

// Failover decides whether an attempt that failed on server is retried.
// attempt is the failed attempt's index, 0 for the first. Within the
// retry budget (Config.Retries) it re-books the request through Rebook
// and, when that found a backend, releases the failed attempt and
// returns the retry's backend. ok false changes nothing: the caller
// settles the failed attempt with Done, like any finished attempt.
func (c *Core) Failover(key, path string, server, attempt int, now time.Time) (next int, ok bool) {
	if attempt >= c.cfg.Retries {
		return -1, false
	}
	if next, ok = c.Rebook(key, path, server, now); ok {
		c.Done(key, server, path, true, false)
	}
	return next, ok
}

// Rebook re-routes a request whose attempt on the excluded backend
// failed: it picks the best alternative via the shared target helper —
// a backend the locality state says holds the file first (replication
// placed warm copies for exactly this moment), then the least-loaded
// backend open to new placements, falling back to degraded ones, then
// to one WakeFallback brings back, only when nothing else is up —
// re-pins the session, registers the retry in the routing state and
// records it (Record.Retry). ok is false when no alternative backend
// exists.
func (c *Core) Rebook(key, path string, exclude int, now time.Time) (server int, ok bool) {
	best, found := c.pickTarget(path, exclude, false, now)
	if !found {
		return 0, false
	}
	conn := -1
	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	if st, okSt := sh.byKey[key]; okSt {
		st.server = best
		st.hasSrv = true
		st.active++
		conn = st.id
	}
	sh.mu.Unlock()
	c.perBackend[best].Add(1)
	c.stats.retries.Add(1)
	c.book(best, path)
	if c.emitter != nil {
		c.emitter.emit(Record{
			Seq:     c.seq.Add(1),
			Conn:    conn,
			Path:    path,
			Tier:    c.Tier(),
			Verdict: Admitted,
			Server:  best,
			Routed:  true,
			Retry:   true,
		})
	}
	return best, true
}

// book registers one attempt of path on server — a Route, Rebook or
// hedge booking: the backend's load and the file's in-flight count go
// up, and in optimistic mode the backend is assumed to have the file
// hot after serving it, consuming any prefetch mark there. Dynamic
// responses are uncacheable, so they never enter the locality view —
// matching exact mode, where residency only ever reports cached static
// files.
func (c *Core) book(server int, path string) {
	c.loads[server].Add(1)
	f := c.fileShardFor(path)
	f.mu.Lock()
	fs := f.record(path, c.cfg.Backends)
	fs.flight[server]++
	fs.busy = fs.busy.Add(server)
	if !c.cfg.Exact && !trace.IsDynamicPath(path) {
		f.locality[server].Insert(path, 1)
		fs.prefetched = fs.prefetched.Remove(server)
	}
	f.mu.Unlock()
}

// release undoes one book after the attempt ends. failed marks a
// backend error: in optimistic mode its locality claim and prefetch
// mark for the file drop (the process behind it may have lost its
// memory).
func (c *Core) release(server int, path string, failed bool) {
	c.loads[server].Add(-1)
	f := c.fileShardFor(path)
	f.mu.Lock()
	if fs := f.files[path]; fs != nil && fs.flight[server] > 0 {
		fs.flight[server]--
		if fs.flight[server] == 0 {
			fs.busy = fs.busy.Remove(server)
		}
	}
	if failed && !c.cfg.Exact {
		f.locality[server].Remove(path)
		f.unmark(path, server)
	}
	f.mu.Unlock()
}

// InvalidateBackend forgets everything the core believes about a
// backend that crashed or whose breaker tripped: its locality state
// (exact residency or the optimistic map — the process behind it
// likely lost its memory), its prefetch marks, every session pinned to
// it, which must re-bind on its next request, and its gray detector
// window: a hard failure supersedes gray detection, so a past life's
// latencies never drive an ejection after the backend returns. wrMu
// serializes the sweep against concurrent invalidations; routing reads
// proceed under the shard leaves throughout.
func (c *Core) InvalidateBackend(server int) {
	if c.detector != nil {
		c.detector.Reset(server)
	}
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	for i := range c.fsh {
		f := &c.fsh[i]
		f.mu.Lock()
		for _, fs := range f.files {
			fs.resident = fs.resident.Remove(server)
			fs.prefetched = fs.prefetched.Remove(server)
		}
		if !c.cfg.Exact {
			f.locality[server] = newShardLRU(c.cfg.LocalityEntries, c.nshards)
		}
		f.mu.Unlock()
	}
	for i := range c.ssh {
		sh := &c.ssh[i]
		sh.mu.Lock()
		for _, st := range sh.byKey {
			if st.hasSrv && st.server == server {
				st.hasSrv = false
			}
		}
		sh.mu.Unlock()
	}
}
