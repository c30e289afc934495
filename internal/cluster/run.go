package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"prord/internal/dispatch"
	"prord/internal/trace"
)

// session is the closed-loop replay state of one persistent connection:
// request i+1 is issued no earlier than its trace offset after request i,
// and never before request i's response arrives (HTTP/1.1 pipelining is
// not modeled, matching the paper's sequential persistent connections).
type session struct {
	id   int
	key  string // the core's session key
	reqs []int  // indices into the trace's request slice
	next int
	// fl is the session's request in flight. The loop is closed, so a
	// session has one request outstanding and the record is reused for
	// the next; only an armed hedge race, whose losing leg can outlive
	// the request, works on a copy (see hedgeRace).
	fl flight
}

// flight is one request on its way through the cluster. It is the
// handler of every event of the request's life — front-end, network,
// disk, CPU — and the event's op code says which step comes next, so
// scheduling a step allocates nothing.
type flight struct {
	c *Cluster
	s *session
	r *trace.Request
	// server and source are the core's placement (Outcome.Server and
	// Outcome.Source).
	server, source int
	issued         time.Duration
	// attempt counts the request's failovers so far (0: first attempt).
	attempt int
	race    *hedgeRace // nil unless a hedged backup is armed
}

// The steps of a flight, in the order a request meets them.
const (
	stepConnect = iota // the session's TCP connection is being set up
	stepIssue          // the session sends its next request
	stepRoute          // a queued request was granted an admission slot
	stepArrive         // the front-end hands the request to its backend
	stepFetched        // the bytes arrived from a remote memory
	stepRead           // the demand disk read finished
	stepServed         // the backend CPU finished the response
	stepErrored        // the backend CPU finished an injected 503
)

// Handle implements sim.Handler.
func (f *flight) Handle(op int) {
	c := f.c
	switch op {
	case stepConnect:
		// TCP connection establishment precedes the first request.
		c.eng.AfterOp(c.cfg.Params.ConnectionLatency, f, stepIssue)
	case stepIssue:
		c.issue(f.s)
	case stepRoute:
		c.routeRequest(f)
	case stepArrive:
		c.arriveAtBackend(f)
	case stepFetched:
		c.serve(f)
	case stepRead:
		c.finishRead(f)
	case stepServed:
		c.complete(f)
	case stepErrored:
		c.failServe(f)
	}
}

// Run replays tr against the cluster and returns the measured result.
// A cluster is single-use: Run can be called once.
func (c *Cluster) Run(tr *trace.Trace) (*Result, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run called twice")
	}
	c.ran = true
	if len(tr.Requests) == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	c.tr = tr
	c.files = tr.Files
	c.remaining = len(tr.Requests)

	// Group requests by session preserving time order. Scheduling order
	// must be deterministic (the event heap breaks time ties FIFO), so
	// sort sessions by first-request time, then id.
	bySession := tr.Sessions()
	sessions := make([]session, 0, len(bySession))
	for id, idxs := range bySession {
		sessions = append(sessions, session{id: id, key: strconv.Itoa(id), reqs: idxs})
	}
	sort.Slice(sessions, func(i, j int) bool {
		ti := tr.Requests[sessions[i].reqs[0]].Time
		tj := tr.Requests[sessions[j].reqs[0]].Time
		if ti != tj {
			return ti < tj
		}
		return sessions[i].id < sessions[j].id
	})
	c.firstArr = -1
	for i := range sessions {
		s := &sessions[i]
		s.fl = flight{c: c, s: s}
		start := tr.Requests[s.reqs[0]].Time
		if c.firstArr < 0 || start < c.firstArr {
			c.firstArr = start
		}
		c.eng.AtOp(start, &s.fl, stepConnect)
	}
	// Injected backend failures and recoveries. Fail-stop crashes; the
	// gray modes only change how the backend behaves while "up".
	for _, f := range c.cfg.Failures {
		f := f
		switch f.Mode {
		case Slow:
			c.eng.At(f.At, func() { c.gray.slowX[f.Server] = f.Slowdown })
			if f.RecoverAt > 0 {
				c.eng.At(f.RecoverAt, func() { c.gray.slowX[f.Server] = 0 })
			}
		case ErrRate:
			c.eng.At(f.At, func() { c.gray.errRate[f.Server] = f.ErrRate })
			if f.RecoverAt > 0 {
				c.eng.At(f.RecoverAt, func() { c.gray.errRate[f.Server] = 0 })
			}
		case Flap:
			// Down at At, toggling every period; New guarantees RecoverAt
			// bounds the schedule, and recovery always ends up.
			down := true
			for t := f.At; t < f.RecoverAt; t += f.FlapPeriod {
				d := down
				c.eng.At(t, func() { c.gray.softDown[f.Server] = d })
				down = !down
			}
			c.eng.At(f.RecoverAt, func() { c.gray.softDown[f.Server] = false })
		default:
			c.eng.At(f.At, func() { c.crash(f.Server) })
			if f.RecoverAt > 0 {
				c.eng.At(f.RecoverAt, func() { c.recoverServer(f.Server) })
			}
		}
	}
	// The PARD-style power controller, kept alive only while work remains.
	if c.power != nil {
		var tick func()
		tick = func() {
			if c.remaining <= 0 {
				return
			}
			c.powerTick()
			c.eng.After(c.power.params.Interval, tick)
		}
		c.eng.After(c.power.params.Interval, tick)
	}
	// Periodic replication (Algorithm 3's "every t seconds"), kept alive
	// only while work remains so the event queue can drain. The degrade
	// ladder sheds refresh rounds along with prefetching: no proactive
	// copies while the cluster is pressed.
	if c.replmgr != nil {
		var tick func()
		tick = func() {
			if c.remaining <= 0 {
				return
			}
			if !c.core.ShedReplication() {
				c.replmgr.Step(c)
			}
			c.eng.After(c.cfg.ReplicationInterval, tick)
		}
		c.eng.After(c.cfg.ReplicationInterval, tick)
	}
	c.eng.Run()
	if c.remaining != 0 {
		return nil, fmt.Errorf("cluster: simulation drained with %d requests outstanding", c.remaining)
	}
	return c.result(tr), nil
}

// issue sends session s's next request into the cluster.
func (c *Cluster) issue(s *session) {
	f := &s.fl
	f.r = &c.tr.Requests[s.reqs[s.next]]
	f.issued = c.eng.Now()
	f.attempt = 0
	c.processRequest(f)
}

// scheduleNext arranges the session's following request after the current
// one completes at time done.
func (c *Cluster) scheduleNext(s *session) {
	s.next++
	if s.next >= len(s.reqs) {
		// Connection closes; the core drops its session, navigation
		// tracker and per-connection policy state.
		c.core.CloseConn(s.key)
		return
	}
	gap := c.tr.Requests[s.reqs[s.next]].Time - c.tr.Requests[s.reqs[s.next-1]].Time
	c.eng.AfterOp(gap, &s.fl, stepIssue)
}

// processRequest runs the core's admission control and, once admitted,
// its Fig. 4 routing flow. A queued request waits in the core's bounded
// accept queue — the same one the live front-end uses — for up to
// QueueTimeout of virtual time.
func (c *Cluster) processRequest(f *flight) {
	if c.cfg.Overload == nil {
		// No gate to pass: everything is admitted, and the grant
		// callback below would be an allocation per request.
		c.routeRequest(f)
		return
	}
	verdict, w := c.core.Admit(f.s.key, f.r.Path, c.vnow(), func() {
		// A slot freed while we were queued: resume at the current
		// virtual time (the grant fires inside another request's
		// completion event).
		c.eng.AfterOp(0, f, stepRoute)
	})
	switch verdict {
	case dispatch.Shed:
		c.remaining--
		c.scheduleNext(f.s)
	case dispatch.Queued:
		// The timer can fire long after the request was granted and
		// finished, so it keeps its own copy of what it needs.
		s, path := f.s, f.r.Path
		c.eng.After(c.core.QueueTimeout(), func() {
			if c.core.AbandonWait(w, path, c.vnow()) {
				c.remaining--
				c.scheduleNext(s)
			}
		})
	default:
		c.routeRequest(f)
	}
}

// routeRequest asks the core for a placement and hands the request to
// the chosen backend through a front-end distributor.
func (c *Cluster) routeRequest(f *flight) {
	s, r := f.s, f.r
	out := c.core.Route(s.key, r.Path, r.Size, c.vnow())
	if !out.OK {
		// Whole cluster down: the request is lost.
		c.core.GateLeave()
		c.met.Failed++
		c.remaining--
		c.scheduleNext(s)
		return
	}
	f.server, f.source = out.Server, out.Source
	// Arm the hedged backup (a no-op when the gray layer is off or the
	// request is not hedgeable) before the primary starts its serve.
	f = c.maybeHedge(f)
	// Front-end occupancy: analysis + dispatcher consultation + handoff.
	cost := c.cfg.Params.FrontPerRequest
	if out.Dispatch {
		cost += c.cfg.Params.DispatchLatency
	}
	if out.Handoff {
		cost += c.cfg.Params.HandoffLatency
	}
	if c.replmgr != nil {
		c.replmgr.Ranker().Observe(r.Path)
	}
	// The L4 switch pins each connection to one distributor.
	c.fronts[s.id%len(c.fronts)].ScheduleOp(cost, f, stepArrive)
}

// arriveAtBackend resolves the content (memory hit, remote memory, or
// disk) and then serves the response through the backend CPU. An
// active slow fault dilates every cost at the backend; an active
// errrate fault may fail the request outright after a token CPU cost
// (the backend answered 503 quickly).
func (c *Cluster) arriveAtBackend(f *flight) {
	r, server := f.r, f.server
	b := c.backends[server]
	if c.errRoll(server) {
		b.cpu.ScheduleOp(c.dilate(server, c.cfg.Params.CPUPerRequest), f, stepErrored)
		return
	}
	switch {
	case r.Dynamic || trace.IsDynamicPath(r.Path):
		// Generated content: no cache, no disk — per-request CPU work.
		c.met.DynamicServed++
		b.cpu.ScheduleOp(
			c.dilate(server, c.cfg.Params.DynamicCPU+perKBCost(r.Size, c.cfg.Params.CPUPerKB)),
			f, stepServed)
	case b.store.Touch(r.Path):
		c.met.MemoryHits++
		if c.core.ConsumePrefetch(server, r.Path) {
			c.met.PrefetchHits++
		}
		c.serve(f)
	case f.source >= 0 && f.source != server && c.backends[f.source].store.Contains(r.Path):
		// Back-end forwarding: pull the bytes from the remote memory over
		// the internal network. No disk access, so it counts as a memory
		// hit for locality purposes.
		c.met.MemoryHits++
		c.met.RemoteFetches++
		b.net.ScheduleOp(c.dilate(server, perKBCost(r.Size, c.cfg.Params.NetPerKB)), f, stepFetched)
	case c.core.PrefetchedHere(server, r.Path):
		// A prefetch of this file is already reading the disk here:
		// piggyback on it rather than issuing a duplicate read. The
		// request still waited on disk, so it counts as a miss, but the
		// prefetch was useful.
		c.met.MemoryMisses++
		c.met.PrefetchHits++
		key := waiterKey{r.Path, server}
		c.waiters[key] = append(c.waiters[key], f)
	default:
		c.met.MemoryMisses++
		b.disk.ScheduleOp(
			c.dilate(server, c.cfg.Params.DiskFixed+perKBCost(r.Size, c.cfg.Params.DiskPerKB)),
			f, stepRead)
	}
}

// storeRead caches the file a disk read just brought into a backend's
// memory, unless the backend crashed while reading.
func (c *Cluster) storeRead(server int, r *trace.Request) {
	if c.down[server] {
		return
	}
	evicted, stored := c.backends[server].store.Insert(r.Path, r.Size)
	c.noteEvictions(server, evicted)
	if stored {
		c.core.NoteResident(server, r.Path)
	}
}

// finishRead ends a demand miss's disk read; on a backend that crashed
// meanwhile the completion path handles the retry.
func (c *Cluster) finishRead(f *flight) {
	c.storeRead(f.server, f.r)
	c.serve(f)
}

// serve sends the response, now in memory, through the backend CPU.
func (c *Cluster) serve(f *flight) {
	c.backends[f.server].cpu.ScheduleOp(
		c.dilate(f.server, c.cfg.Params.CPUPerRequest+perKBCost(f.r.Size, c.cfg.Params.CPUPerKB)),
		f, stepServed)
}

// complete finishes one primary serve: metrics, proactive planning,
// next issue. With a hedge race open, only the first finisher delivers
// the response; the loser just releases its booking.
func (c *Cluster) complete(f *flight) {
	if c.down[f.server] || c.gray.softDown[f.server] {
		// The backend crashed (or its link flapped down) while serving:
		// the response never reached the client, which retries through
		// the front-end.
		c.failServe(f)
		return
	}
	end := c.eng.Now()
	// Feed the overload layer the request's one completion. The primary
	// owns this call: a winning hedge does not repeat it.
	c.core.FinishRequest(c.vnow(), end-f.issued)
	c.core.Done(f.s.key, f.server, f.r.Path, false, f.attempt > 0)
	c.core.ObserveLatency(f.server, end-f.issued, c.vnow())
	if race := f.race; race != nil {
		if race.delivered {
			return // the hedge won; the session already moved on
		}
		race.delivered = true
	}
	c.deliver(f, f.server)
}

// failServe finishes a primary serve that errored (crash, flap or an
// errrate 503). With a hedged backup still in flight the race waits for
// it and the primary's booking stays held, as the live front-end holds
// it until both legs have answered; otherwise the request fails over.
func (c *Cluster) failServe(f *flight) {
	if race := f.race; race != nil {
		if race.delivered {
			// The hedge already answered; only the booking is left.
			c.core.FinishRequest(c.vnow(), c.eng.Now()-f.issued)
			c.core.Done(f.s.key, f.server, f.r.Path, true, false)
			return
		}
		if race.backupOut {
			race.primaryFailed = true
			return // the backup settles the primary when it finishes
		}
		// No backup out: settle the race so a still-pending hedge timer
		// cannot fire a backup for the abandoned attempt (which would
		// complete the session twice).
		race.delivered = true
	}
	c.failover(f)
}

// failover hands a request whose attempt failed to the core's Failover:
// within the retry budget the request is re-booked elsewhere and goes
// back through the front-end to its new backend; past it, or with no
// backend left to take it, the failed attempt is settled and the
// request is lost.
func (c *Cluster) failover(f *flight) {
	f.race = nil // a retry is never hedged
	next, ok := c.core.Failover(f.s.key, f.r.Path, f.server, f.attempt, c.vnow())
	if !ok {
		c.core.Done(f.s.key, f.server, f.r.Path, true, false)
		c.core.FinishRequest(c.vnow(), c.eng.Now()-f.issued)
		c.met.Failed++
		c.remaining--
		c.scheduleNext(f.s)
		return
	}
	c.met.Failovers++
	f.attempt++
	f.server, f.source = next, -1
	// The re-route is a dispatcher consultation and a handoff.
	cost := c.cfg.Params.FrontPerRequest + c.cfg.Params.DispatchLatency + c.cfg.Params.HandoffLatency
	c.fronts[f.s.id%len(c.fronts)].ScheduleOp(cost, f, stepArrive)
}

// waiterKey names an in-flight prefetch: one file being read at one
// backend.
type waiterKey struct {
	file   string
	server int
}

// prefetchBatch reads one trigger's admitted files off the backend disk
// in a single operation and pins them on completion. The core has
// already admitted and marked every file; sizes come from the trace's
// file table (the Prefetchable hook guarantees they are known).
func (c *Cluster) prefetchBatch(server int, files []string) {
	if len(files) == 0 {
		return
	}
	b := c.backends[server]
	sizes := make([]int64, len(files))
	var bytes int64
	for i, f := range files {
		sizes[i] = c.files[f]
		bytes += sizes[i]
	}
	b.disk.Schedule(
		c.dilate(server, c.cfg.Params.DiskFixed+perKBCost(bytes, c.cfg.Params.DiskPerKB)),
		func(_, _ time.Duration) {
			for i, f := range files {
				c.finishPrefetch(server, f, sizes[i])
			}
		},
	)
}

// finishPrefetch inserts a completed prefetch into pinned memory and
// releases any demand requests that piggybacked on the read.
func (c *Cluster) finishPrefetch(server int, file string, size int64) {
	key := waiterKey{file, server}
	release := func() {
		ws := c.waiters[key]
		delete(c.waiters, key)
		for _, f := range ws {
			c.serve(f)
		}
	}
	if !c.core.PrefetchedHere(server, file) || c.down[server] {
		release() // placement consumed/invalidated while reading
		return
	}
	evicted, stored := c.backends[server].store.InsertPinned(file, size)
	c.noteEvictions(server, evicted)
	if stored {
		c.core.NoteResident(server, file)
	} else {
		c.core.UnmarkPrefetch(server, file)
	}
	release()
}
