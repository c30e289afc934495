package dispatch

import (
	"sort"
	"sync"
	"time"

	"prord/internal/cache"
	"prord/internal/policy"
)

// session is one tracked client connection. Guarded by its shard's
// mutex.
type session struct {
	id       int
	key      string
	server   int
	hasSrv   bool
	active   int // requests currently in flight for this session
	lastPage string
	// pages is the recent main-page path used by group prefetch;
	// classified marks that the one-shot category prefetch already fired.
	pages      []string
	classified bool
}

// sessionShard is one stripe of the session table.
type sessionShard struct {
	mu    sync.Mutex
	seq   int
	byKey map[string]*session
	byID  map[int]*session
}

// fileShard is one stripe of the per-file routing state. In optimistic
// mode it also carries this stripe's slice of every backend's locality
// LRU (each bounded to LocalityEntries/Shards entries).
type fileShard struct {
	mu         sync.Mutex
	memory     map[string]map[int]bool // exact mode: file -> resident backends
	prefetched map[string]map[int]bool // file -> backends with a prefetch mark
	inflight   map[string]map[int]int  // file -> backend -> outstanding count
	locality   []*cache.LRU            // optimistic mode: per backend
}

// shardOf hashes a string onto a stripe index. The FNV-1a loop is
// inlined rather than using hash/fnv: the hasher interface costs two
// heap allocations per call, and shardOf runs on every Route, Done and
// Admit. Same polynomial, same constants — the stripe assignment (and
// the session-id formula built on it) is bit-identical to fnv.New32a.
func (c *Core) shardOf(s string) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h % uint32(c.nshards))
}

func (c *Core) sessionShardFor(key string) *sessionShard { return &c.ssh[c.shardOf(key)] }
func (c *Core) fileShardFor(file string) *fileShard      { return &c.fsh[c.shardOf(file)] }

// lookupSession returns the session for key, creating it if needed. A
// found-or-created session has active incremented as a reservation so a
// concurrent eviction pass cannot drop it before the caller books the
// request; every lookupSession is paired with a Done (or an explicit
// release on the unroutable path). evicted lists the idle sessions the
// MaxSessions valve dropped; the caller must pass them to closeIDs
// after releasing every lock.
func (c *Core) lookupSession(key string) (st *session, evicted []int) {
	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	st, ok := sh.byKey[key]
	if !ok {
		if len(sh.byKey) >= c.sessionsPerShard {
			evicted = sh.evictIdle()
		}
		sh.seq++
		st = &session{id: (sh.seq-1)*c.nshards + c.shardOf(key), key: key}
		sh.byKey[key] = st
		sh.byID[st.id] = st
	}
	st.active++
	sh.mu.Unlock()
	return st, evicted
}

// evictIdle drops every session in the shard with no request in flight.
// Sessions mid-request keep their binding; if every session is busy the
// shard temporarily grows past its bound instead of yanking state out
// from under in-flight requests. Callers hold the shard mutex and must
// closeIDs the returned ids after releasing it.
func (sh *sessionShard) evictIdle() (evicted []int) {
	for key, st := range sh.byKey {
		if st.active > 0 {
			continue
		}
		delete(sh.byKey, key)
		delete(sh.byID, st.id)
		evicted = append(evicted, st.id)
	}
	sort.Ints(evicted)
	return evicted
}

// closeIDs releases the tracker's and the policies' per-connection
// state for evicted or closed session ids. Callers hold no locks.
// ConnClose implementations must be concurrency-safe (the policy
// package's contract), so no core lock wraps them.
func (c *Core) closeIDs(ids []int) {
	if len(ids) == 0 {
		return
	}
	if c.tracker != nil {
		c.trackMu.Lock()
		for _, id := range ids {
			c.tracker.Close(id)
		}
		c.trackMu.Unlock()
	}
	cc, closes := c.cfg.Policy.(policy.ConnCloser)
	fc, fcloses := c.cfg.Fallback.(policy.ConnCloser)
	for _, id := range ids {
		if closes {
			cc.ConnClose(id)
		}
		if fcloses {
			fc.ConnClose(id)
		}
	}
}

// CloseConn drops a finished connection's session state (the simulator
// calls it when a replayed session's script ends; the live front-end
// relies on idle eviction instead).
func (c *Core) CloseConn(key string) {
	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	st, ok := sh.byKey[key]
	if ok {
		delete(sh.byKey, key)
		delete(sh.byID, st.id)
	}
	sh.mu.Unlock()
	if ok {
		c.closeIDs([]int{st.id})
	}
}

// available reports whether a backend can take new work at now.
func (c *Core) available(server int, now time.Time) bool {
	if c.cfg.Available == nil {
		return true
	}
	return c.cfg.Available(server, now)
}

// availMask evaluates every backend's availability once per decision,
// filling the caller's buffer (grown if needed) to keep the routing
// path allocation-free.
func (c *Core) availMask(buf []bool, now time.Time) (mask []bool, n int) {
	mask = boolBuf(buf, c.cfg.Backends)
	for i := range mask {
		if c.available(i, now) {
			mask[i] = true
			n++
		}
	}
	return mask, n
}

// boolBuf returns a length-n false-filled slice backed by buf when it
// has the capacity.
func boolBuf(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// loadOf returns the routable-load signal for an available backend.
func (c *Core) loadOf(server int) int {
	if c.cfg.LoadOf != nil {
		return c.cfg.LoadOf(server)
	}
	return int(c.loads[server].Load())
}

// degraded reports the gray-failure detector's verdict for a backend
// (never degraded without a Degraded hook). Lock-free per the Config
// contract, so it is safe under shard leaf locks.
func (c *Core) degraded(server int) bool {
	return c.cfg.Degraded != nil && c.cfg.Degraded(server)
}

// narrowsAccept reports whether any configured layer can make the
// accept mask narrower than the availability mask. When false, Route
// uses the availability mask directly — the historical behavior.
func (c *Core) narrowsAccept() bool {
	return c.cfg.Degraded != nil
}

// fillAccept narrows an availability mask to backends open to new
// placements — not gray-degraded — filling accept (pre-sized to match
// avail). When nothing accepts — every available backend is degraded —
// it falls back to the availability mask so traffic still routes.
// Callers without a detector use the availability mask directly.
func (c *Core) fillAccept(accept, avail []bool) []bool {
	n := 0
	for i := range avail {
		if !avail[i] {
			continue
		}
		if c.degraded(i) {
			continue
		}
		accept[i] = true
		n++
	}
	if n == 0 {
		return avail
	}
	return accept
}

// scratch is the per-decision working set Route borrows from a
// sync.Pool: the availability and accept masks, the policy view, and
// the view's reusable server-list buffer. Pooling keeps the
// steady-state routing path at zero heap allocations.
type scratch struct {
	avail  []bool
	accept []bool
	view   coreView
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows a scratch and wires its view to the core.
func (c *Core) getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.view.c = c
	return sc
}

// putScratch returns a scratch to the pool, dropping references that
// would pin core state.
func (sc *scratch) put() {
	sc.view.c = nil
	sc.view.avail = nil
	sc.view.accept = nil
	scratchPool.Put(sc)
}

// residentHere reports whether the core believes a backend holds file:
// ground truth in exact mode, the bounded locality LRU otherwise.
// Callers hold the file's shard mutex.
func (f *fileShard) residentHere(exact bool, server int, file string) bool {
	if exact {
		return f.memory[file][server]
	}
	return f.locality[server].Contains(file)
}

// coreView implements policy.View for one routing decision, filtering
// unavailable backends exactly as both adapters used to: their load
// reads as the UnavailableLoad sentinel, they vanish from server sets,
// and a connection pinned to one loses its binding. With a gray-failure
// detector the accept mask additionally hides degraded backends from
// new placements. The view lives in the per-decision scratch, takes shard
// mutexes strictly as leaves (an ordering the lockorder analyzer
// verifies interprocedurally on every lint run) and serves
// server-set results from one reusable buffer — per the policy.View
// contract those slices are valid only until the next view call.
type coreView struct {
	c      *Core
	avail  []bool // present and healthy: bound sessions may stay
	accept []bool // additionally open to new placements
	buf    []int  // reusable result buffer for ServersWith/PrefetchedAt
}

func (v *coreView) NumServers() int { return v.c.cfg.Backends }

func (v *coreView) Load(i int) int {
	if !v.accept[i] {
		return policy.UnavailableLoad
	}
	return v.c.loadOf(i)
}

func (v *coreView) ServersWith(file string) []int {
	f := v.c.fileShardFor(file)
	f.mu.Lock()
	defer f.mu.Unlock()
	if v.c.cfg.Exact {
		return v.filter(f.memory[file])
	}
	out := v.buf[:0]
	for s := range v.accept {
		if v.accept[s] && f.locality[s].Contains(file) {
			out = append(out, s)
		}
	}
	v.buf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func (v *coreView) PrefetchedAt(file string) []int {
	f := v.c.fileShardFor(file)
	f.mu.Lock()
	defer f.mu.Unlock()
	return v.filter(f.prefetched[file])
}

// filter returns the available members of a server set in ascending
// order, so policies that pick the first candidate behave the same on
// every run instead of following map iteration order. The result
// shares the view's buffer.
func (v *coreView) filter(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	out := v.buf[:0]
	for s := range set {
		if v.accept[s] {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	v.buf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func (v *coreView) InFlight(file string) (int, bool) {
	f := v.c.fileShardFor(file)
	f.mu.Lock()
	defer f.mu.Unlock()
	best, found := 0, false
	for s, n := range f.inflight[file] {
		if n <= 0 || !v.accept[s] {
			continue
		}
		if !found || s < best {
			best, found = s, true
		}
	}
	return best, found
}

func (v *coreView) LastServer(conn int) (int, bool) {
	sh := &v.c.ssh[conn%v.c.nshards]
	sh.mu.Lock()
	st, ok := sh.byID[conn]
	server, has := 0, false
	if ok && st.hasSrv {
		server, has = st.server, true
	}
	sh.mu.Unlock()
	if !has || !v.avail[server] {
		return 0, false
	}
	if v.c.degraded(server) {
		// A pin to a gray-failing backend is not honored: the session
		// re-binds through the normal path — this request, this session.
		return 0, false
	}
	return server, true
}

var _ policy.View = (*coreView)(nil)

// --- exact-locality adapter hooks (no-ops in optimistic mode) ---

// NoteResident records ground-truth residency: the adapter's backend
// now holds file in memory. Exact mode only.
func (c *Core) NoteResident(server int, file string) {
	if !c.cfg.Exact {
		return
	}
	f := c.fileShardFor(file)
	f.mu.Lock()
	addSet(f.memory, file, server)
	f.mu.Unlock()
}

// NoteGone records that a backend no longer holds file (eviction or
// crash); any prefetch mark there falls with it. Exact mode only.
func (c *Core) NoteGone(server int, file string) {
	if !c.cfg.Exact {
		return
	}
	f := c.fileShardFor(file)
	f.mu.Lock()
	delSet(f.memory, file, server)
	delSet(f.prefetched, file, server)
	f.mu.Unlock()
}

// PrefetchedHere reports whether file carries a prefetch mark at the
// backend (the simulator's piggyback check: a prefetch disk read is in
// progress or completed there).
func (c *Core) PrefetchedHere(server int, file string) bool {
	f := c.fileShardFor(file)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.prefetched[file][server]
}

// ConsumePrefetch clears file's prefetch mark at the backend and
// reports whether one was present — a prefetch hit.
func (c *Core) ConsumePrefetch(server int, file string) bool {
	f := c.fileShardFor(file)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.prefetched[file][server] {
		return false
	}
	delSet(f.prefetched, file, server)
	return true
}

// UnmarkPrefetch drops file's prefetch mark at the backend without
// counting a hit (the placement failed or was invalidated).
func (c *Core) UnmarkPrefetch(server int, file string) {
	f := c.fileShardFor(file)
	f.mu.Lock()
	delSet(f.prefetched, file, server)
	f.mu.Unlock()
}

// --- observability accessors (tests, stats endpoints) ---

// Loads returns the core's outstanding-booking count per backend. When
// the adapter supplies LoadOf the policies route on that signal
// instead, but the core still maintains these counters.
func (c *Core) Loads() []int {
	out := make([]int, len(c.loads))
	for i := range c.loads {
		out[i] = int(c.loads[i].Load())
	}
	return out
}

// SessionCount returns the number of tracked sessions.
func (c *Core) SessionCount() int {
	n := 0
	for i := range c.ssh {
		sh := &c.ssh[i]
		sh.mu.Lock()
		n += len(sh.byKey)
		sh.mu.Unlock()
	}
	return n
}

// SessionBinding reports a session's backend pin, or ok=false when the
// session is unknown or unbound.
func (c *Core) SessionBinding(key string) (server int, ok bool) {
	sh := c.sessionShardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, found := sh.byKey[key]; found && st.hasSrv {
		return st.server, true
	}
	return 0, false
}

// LocalityLen returns the optimistic locality map's entry count for a
// backend (0 in exact mode, where residency is adapter ground truth).
func (c *Core) LocalityLen(server int) int {
	if c.cfg.Exact {
		return 0
	}
	n := 0
	for i := range c.fsh {
		f := &c.fsh[i]
		f.mu.Lock()
		n += f.locality[server].Len()
		f.mu.Unlock()
	}
	return n
}

// LocalityContains reports whether the core believes a backend holds
// file (either locality mode).
func (c *Core) LocalityContains(server int, file string) bool {
	f := c.fileShardFor(file)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.residentHere(c.cfg.Exact, server, file)
}

// ResidencySnapshot returns the exact-mode residency map: file ->
// holding backends, ascending. Nil in optimistic mode.
func (c *Core) ResidencySnapshot() map[string][]int {
	if !c.cfg.Exact {
		return nil
	}
	out := make(map[string][]int)
	for i := range c.fsh {
		f := &c.fsh[i]
		f.mu.Lock()
		for file, set := range f.memory {
			// A file lives in exactly one shard, so this is the only
			// write to its entry.
			out[file] = sortedKeys(set)
		}
		f.mu.Unlock()
	}
	return out
}

// PrefetchMarks returns the current prefetch placements: file ->
// marked backends, ascending.
func (c *Core) PrefetchMarks() map[string][]int {
	out := make(map[string][]int)
	for i := range c.fsh {
		f := &c.fsh[i]
		f.mu.Lock()
		for file, set := range f.prefetched {
			if len(set) > 0 {
				out[file] = sortedKeys(set)
			}
		}
		f.mu.Unlock()
	}
	return out
}

// SessionCheck audits the session table for tests: total tracked
// sessions, how many have requests in flight, and the first invariant
// violation found ("" when clean) — a negative in-flight count or an
// id-index entry out of sync with the key table. (A busy session may
// legitimately be observed unbound for an instant: admission reserves
// the session before the routing lock books its backend.) It locks
// every shard in turn; not for hot paths.
func (c *Core) SessionCheck() (total, busy int, problem string) {
	for i := range c.ssh {
		sh := &c.ssh[i]
		sh.mu.Lock()
		total += len(sh.byKey)
		if len(sh.byID) != len(sh.byKey) && problem == "" {
			problem = "byID/byKey size mismatch"
		}
		for _, st := range sh.byKey {
			if st.active > 0 {
				busy++
			}
			switch {
			case problem != "":
			case st.active < 0:
				problem = "negative session in-flight count"
			case sh.byID[st.id] != st:
				problem = "byID entry out of sync with byKey"
			}
		}
		sh.mu.Unlock()
	}
	return total, busy, problem
}

// InFlightFiles returns the number of files with outstanding requests.
// Drained entries linger in the table as empty inner maps (see
// decFlight), so only non-empty sets count.
func (c *Core) InFlightFiles() int {
	n := 0
	for i := range c.fsh {
		f := &c.fsh[i]
		f.mu.Lock()
		for _, set := range f.inflight {
			if len(set) > 0 {
				n++
			}
		}
		f.mu.Unlock()
	}
	return n
}

// --- small helpers ---

// newShardLRU builds one stripe's share of a backend's optimistic
// locality map: the configured entry bound is split evenly across the
// stripes. The map counts entries, not bytes: every file weighs 1.
func newShardLRU(entries int64, shards int) *cache.LRU {
	per := entries / int64(shards)
	if per < 1 {
		per = 1
	}
	return cache.NewLRU(per)
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func addSet(m map[string]map[int]bool, file string, server int) {
	set, ok := m[file]
	if !ok {
		set = make(map[int]bool)
		m[file] = set
	}
	set[server] = true
}

func delSet(m map[string]map[int]bool, file string, server int) {
	if set, ok := m[file]; ok {
		delete(set, server)
		if len(set) == 0 {
			delete(m, file)
		}
	}
}

func incFlight(m map[string]map[int]int, file string, server int) {
	set, ok := m[file]
	if !ok {
		set = make(map[int]int)
		m[file] = set
	}
	set[server]++
}

func decFlight(m map[string]map[int]int, file string, server int) {
	if set, ok := m[file]; ok {
		set[server]--
		if set[server] <= 0 {
			delete(set, server)
		}
		// The drained inner map is deliberately retained: a hot file
		// cycles between one and zero outstanding requests constantly,
		// and re-making the map on every cycle is the routing path's
		// only steady-state allocation. Per-path retention is bounded
		// by the same request universe as the policies' target tables.
	}
}
