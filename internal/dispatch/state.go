package dispatch

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"prord/internal/cache"
	"prord/internal/policy"
)

// maxBackends is the most backends a Core serves: a ServerSet holds
// one bit per backend in one word.
const maxBackends = 64

// ServerSet is a set of backend indexes, one bit per backend. Every
// "which backends" question the core answers — resident, prefetched, in
// flight, available, accepting — is one word.
type ServerSet uint64

// Has reports whether backend s is a member.
func (m ServerSet) Has(s int) bool { return m&(1<<uint(s)) != 0 }

// Add returns the set with backend s added.
func (m ServerSet) Add(s int) ServerSet { return m | 1<<uint(s) }

// Remove returns the set with backend s removed.
func (m ServerSet) Remove(s int) ServerSet { return m &^ (1 << uint(s)) }

// Empty reports whether the set has no member.
func (m ServerSet) Empty() bool { return m == 0 }

// AppendTo appends the members to dst in ascending order, growing dst
// at most once.
func (m ServerSet) AppendTo(dst []int) []int {
	dst = slices.Grow(dst, bits.OnesCount64(uint64(m)))
	for ; m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros64(uint64(m)))
	}
	return dst
}

// session is one tracked client connection. Guarded by the session
// table's mutex.
type session struct {
	id       int
	key      string
	server   int
	hasSrv   bool
	active   int // requests currently in flight for this session
	lastPage string
}

// sessionTable is the core's session table: every tracked connection
// by key, under one leaf mutex. Session ids come from one counter.
// Records dropped with no request in flight wait on free for reuse, so
// connection churn does not allocate a record per connection.
type sessionTable struct {
	mu    sync.Mutex
	seq   int
	byKey map[string]*session
	free  []*session
}

// fileTable is the per-file routing state: one record per path the
// core has booked, marked or (exact mode) placed, under one leaf mutex.
// In optimistic mode it also carries every backend's locality LRU, each
// bounded to LocalityEntries entries.
type fileTable struct {
	mu       sync.Mutex
	files    map[string]*fileState
	locality []*cache.LRU // optimistic mode: per backend
}

// fileState is what the core tracks about one path. A record outlives
// its last booking: a hot file cycles between one and zero outstanding
// requests constantly, and re-making the record on every cycle would be
// the routing path's only steady-state allocation. Per-path retention
// is bounded by the same request universe as the policies' target
// tables.
type fileState struct {
	resident   ServerSet // exact mode: backends holding the file
	prefetched ServerSet // backends with a prefetch mark
	busy       ServerSet // backends with flight > 0
	flight     []int32   // outstanding requests per backend
}

// record returns path's record, creating it on first touch. Callers
// hold the file table's mutex.
func (f *fileTable) record(path string, backends int) *fileState {
	fs := f.files[path]
	if fs == nil {
		fs = &fileState{flight: make([]int32, backends)}
		f.files[path] = fs
	}
	return fs
}

// peek returns a copy of path's record for reading its sets (the zero
// record when there is none). Callers hold the file table's mutex.
func (f *fileTable) peek(path string) fileState {
	if fs := f.files[path]; fs != nil {
		return *fs
	}
	return fileState{}
}

// unmark drops path's prefetch mark at server and reports whether one
// was set. Callers hold the file table's mutex.
func (f *fileTable) unmark(path string, server int) bool {
	fs := f.files[path]
	if fs == nil || !fs.prefetched.Has(server) {
		return false
	}
	fs.prefetched = fs.prefetched.Remove(server)
	return true
}

// lookupSession returns the session for key, creating it if needed. A
// found-or-created session has active incremented as a reservation so a
// concurrent eviction pass cannot drop it before the caller books the
// request; every lookupSession is paired with a Done (or an explicit
// release on the unroutable path). evicted lists the idle sessions the
// MaxSessions valve dropped; the caller must pass them to closeIDs
// after releasing every lock.
func (c *Core) lookupSession(key string) (st *session, evicted []int) {
	sh := &c.sessions
	sh.mu.Lock()
	st, ok := sh.byKey[key]
	if !ok {
		if len(sh.byKey) >= c.cfg.MaxSessions {
			evicted = sh.evictIdle()
		}
		if n := len(sh.free); n > 0 {
			st, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			st = new(session)
		}
		*st = session{id: sh.seq, key: key}
		sh.seq++
		sh.byKey[key] = st
	}
	st.active++
	sh.mu.Unlock()
	return st, evicted
}

// evictIdle drops every session with no request in flight. Sessions
// mid-request keep their binding; if every session is busy the table
// temporarily grows past its bound instead of yanking state out from
// under in-flight requests. Callers hold the table's mutex and must
// closeIDs the returned ids after releasing it.
func (sh *sessionTable) evictIdle() (evicted []int) {
	for _, st := range sh.byKey {
		if st.active == 0 {
			evicted = append(evicted, st.id)
			sh.drop(st)
		}
	}
	sort.Ints(evicted)
	return evicted
}

// drop removes a session from the table, recycling its record unless a
// request in flight still holds it. Callers hold the table's mutex.
func (sh *sessionTable) drop(st *session) {
	delete(sh.byKey, st.key)
	if st.active == 0 {
		sh.free = append(sh.free, st)
	}
}

// closeIDs releases the navigation tracker's per-connection state for
// evicted or closed session ids. Callers hold no locks.
func (c *Core) closeIDs(ids []int) {
	if len(ids) == 0 || c.tracker == nil {
		return
	}
	c.trackMu.Lock()
	for _, id := range ids {
		c.tracker.Close(id)
	}
	c.trackMu.Unlock()
}

// CloseConn drops a finished connection's session state (the simulator
// calls it when a replayed session's script ends; the live front-end
// relies on idle eviction instead).
func (c *Core) CloseConn(key string) {
	sh := &c.sessions
	sh.mu.Lock()
	id := -1
	if st, ok := sh.byKey[key]; ok {
		id = st.id
		sh.drop(st)
	}
	sh.mu.Unlock()
	if id >= 0 {
		c.closeIDs([]int{id})
	}
}

// availMask evaluates every backend's availability once per decision.
func (c *Core) availMask(now time.Time) ServerSet {
	var m ServerSet
	for i := 0; i < c.cfg.Backends; i++ {
		if c.cfg.Available == nil || c.cfg.Available(i, now) {
			m = m.Add(i)
		}
	}
	return m
}

// loadOf returns the routable-load signal for an available backend.
func (c *Core) loadOf(server int) int {
	if c.cfg.LoadOf != nil {
		return c.cfg.LoadOf(server)
	}
	return int(c.loads[server].Load())
}

// leastLoaded returns the member of set with the lowest load, the
// lowest index on ties; -1 and false when set is empty.
func (c *Core) leastLoaded(set ServerSet) (best int, found bool) {
	best = -1
	for i := 0; i < c.cfg.Backends; i++ {
		if set.Has(i) && (!found || c.loadOf(i) < c.loadOf(best)) {
			best, found = i, true
		}
	}
	return best, found
}

// degraded reports the gray-failure detector's verdict for a backend
// (never degraded with the gray layer off). The mask is lock-free, so
// it is safe under the core's leaf locks.
func (c *Core) degraded(server int) bool {
	return c.degradedMask != nil && c.degradedMask(server)
}

// healthy returns the members of set the gray-failure detector does
// not flag (all of them with the gray layer off).
func (c *Core) healthy(set ServerSet) ServerSet {
	if c.degradedMask == nil {
		return set
	}
	for i := 0; i < c.cfg.Backends; i++ {
		if set.Has(i) && c.degradedMask(i) {
			set = set.Remove(i)
		}
	}
	return set
}

// acceptMask narrows an availability mask to backends open to new
// placements — not gray-degraded. When nothing accepts — every
// available backend is degraded — it falls back to the availability
// mask so traffic still routes.
func (c *Core) acceptMask(avail ServerSet) ServerSet {
	if accept := c.healthy(avail); !accept.Empty() {
		return accept
	}
	return avail
}

// viewPool recycles Route's policy views, each with its reusable
// server-list buffer, so the steady-state routing path does not
// allocate.
var viewPool = sync.Pool{New: func() any { return new(coreView) }}

// getView borrows a view of one decision for session st.
func (c *Core) getView(st *session, avail, accept ServerSet) *coreView {
	v := viewPool.Get().(*coreView)
	v.c, v.st, v.avail, v.accept = c, st, avail, accept
	return v
}

// put returns a view to the pool, dropping its references.
func (v *coreView) put() {
	v.c, v.st = nil, nil
	viewPool.Put(v)
}

// residentHere reports whether the core believes a backend holds file.
// Callers hold the file table's mutex.
func (f *fileTable) residentHere(exact bool, server int, file string) bool {
	return !f.believed(exact, file, ServerSet(0).Add(server)).Empty()
}

// believed returns the members of among that the core believes hold
// file: ground truth in exact mode, the bounded locality LRUs
// otherwise. Callers hold the file table's mutex.
func (f *fileTable) believed(exact bool, file string, among ServerSet) ServerSet {
	if exact {
		return f.peek(file).resident & among
	}
	var out ServerSet
	for s := range f.locality {
		if among.Has(s) && f.locality[s].Contains(file) {
			out = out.Add(s)
		}
	}
	return out
}

// coreView implements policy.View for one routing decision, filtering
// unavailable backends exactly as both adapters used to: their load
// reads as the UnavailableLoad sentinel, they vanish from server sets,
// and a connection pinned to one loses its binding. With a gray-failure
// detector the accept mask additionally hides degraded backends from
// new placements. The view is pooled, takes the table mutexes strictly
// as leaves (an ordering the lockorder analyzer verifies
// interprocedurally on every lint run) and serves server-set results
// from one reusable buffer — per the policy.View contract those slices
// are valid only until the next view call. A policy asks LastServer
// only about the deciding request's own connection, so the view
// answers from the session Route already holds.
type coreView struct {
	c      *Core
	st     *session  // the deciding request's session
	avail  ServerSet // present and healthy: bound sessions may stay
	accept ServerSet // additionally open to new placements
	buf    []int     // reusable result buffer for ServersWith/PrefetchedAt
}

func (v *coreView) NumServers() int { return v.c.cfg.Backends }

func (v *coreView) Load(i int) int {
	if !v.accept.Has(i) {
		return policy.UnavailableLoad
	}
	return v.c.loadOf(i)
}

func (v *coreView) ServersWith(file string) []int {
	f := &v.c.files
	f.mu.Lock()
	holders := f.believed(v.c.cfg.Exact, file, v.accept)
	f.mu.Unlock()
	return v.list(holders)
}

func (v *coreView) PrefetchedAt(file string) []int {
	f := &v.c.files
	f.mu.Lock()
	marked := f.peek(file).prefetched & v.accept
	f.mu.Unlock()
	return v.list(marked)
}

// list returns a server set in ascending order, so policies that pick
// the first candidate behave the same on every run; nil when the set is
// empty. The result shares the view's buffer.
func (v *coreView) list(set ServerSet) []int {
	if set.Empty() {
		return nil
	}
	v.buf = set.AppendTo(v.buf[:0])
	return v.buf
}

// InFlight returns the lowest accepting backend with a request for file
// outstanding.
func (v *coreView) InFlight(file string) (int, bool) {
	f := &v.c.files
	f.mu.Lock()
	busy := f.peek(file).busy & v.accept
	f.mu.Unlock()
	if busy.Empty() {
		return 0, false
	}
	return bits.TrailingZeros64(uint64(busy)), true
}

func (v *coreView) LastServer(conn int) (int, bool) {
	if conn != v.st.id {
		return 0, false
	}
	sh := &v.c.sessions
	sh.mu.Lock()
	server, has := v.st.server, v.st.hasSrv
	sh.mu.Unlock()
	if !has || !v.avail.Has(server) {
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
	f := &c.files
	f.mu.Lock()
	fs := f.record(file, c.cfg.Backends)
	fs.resident = fs.resident.Add(server)
	f.mu.Unlock()
}

// NoteGone records that a backend no longer holds file (eviction or
// crash); any prefetch mark there falls with it. Exact mode only.
func (c *Core) NoteGone(server int, file string) {
	if !c.cfg.Exact {
		return
	}
	f := &c.files
	f.mu.Lock()
	if fs := f.files[file]; fs != nil {
		fs.resident = fs.resident.Remove(server)
		fs.prefetched = fs.prefetched.Remove(server)
	}
	f.mu.Unlock()
}

// PrefetchedHere reports whether file carries a prefetch mark at the
// backend (the simulator's piggyback check: a prefetch disk read is in
// progress or completed there).
func (c *Core) PrefetchedHere(server int, file string) bool {
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peek(file).prefetched.Has(server)
}

// ConsumePrefetch clears file's prefetch mark at the backend and
// reports whether one was present — a prefetch hit.
func (c *Core) ConsumePrefetch(server int, file string) bool {
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.unmark(file, server)
}

// UnmarkPrefetch drops file's prefetch mark at the backend without
// counting a hit (the placement failed or was invalidated).
func (c *Core) UnmarkPrefetch(server int, file string) {
	f := &c.files
	f.mu.Lock()
	f.unmark(file, server)
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
	sh := &c.sessions
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.byKey)
}

// LocalityLen returns the optimistic locality map's entry count for a
// backend (0 in exact mode, where residency is adapter ground truth).
func (c *Core) LocalityLen(server int) int {
	if c.cfg.Exact {
		return 0
	}
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.locality[server].Len()
}

// LocalityContains reports whether the core believes a backend holds
// file (either locality mode).
func (c *Core) LocalityContains(server int, file string) bool {
	f := &c.files
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
	return c.setsByFile(func(fs *fileState) ServerSet { return fs.resident })
}

// PrefetchMarks returns the current prefetch placements: file ->
// marked backends, ascending.
func (c *Core) PrefetchMarks() map[string][]int {
	return c.setsByFile(func(fs *fileState) ServerSet { return fs.prefetched })
}

// setsByFile lists one set of every file's record, ascending, for the
// files where that set is not empty. It holds the file table's mutex
// for the whole walk; not for hot paths.
func (c *Core) setsByFile(set func(*fileState) ServerSet) map[string][]int {
	out := make(map[string][]int)
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	for file, fs := range f.files {
		if m := set(fs); !m.Empty() {
			out[file] = m.AppendTo(nil)
		}
	}
	return out
}

// SessionCheck audits the session table for tests: total tracked
// sessions, how many have requests in flight, and the first invariant
// violation found ("" when clean) — a negative in-flight count. (A busy
// session may legitimately be observed unbound for an instant:
// admission reserves the session before Route books its backend.) It
// holds the session table's mutex for the whole walk; not for hot
// paths.
func (c *Core) SessionCheck() (total, busy int, problem string) {
	sh := &c.sessions
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, st := range sh.byKey {
		if st.active > 0 {
			busy++
		}
		if st.active < 0 && problem == "" {
			problem = "negative session in-flight count"
		}
	}
	return len(sh.byKey), busy, problem
}

// InFlightFiles returns the number of files with outstanding requests:
// records whose busy set is not empty. A drained record stays in the
// file table (see fileState) but does not count.
func (c *Core) InFlightFiles() int {
	return len(c.setsByFile(func(fs *fileState) ServerSet { return fs.busy }))
}
