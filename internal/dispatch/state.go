package dispatch

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/trace"
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

// FileID is a path's dense id in the core's intern table.
type FileID = policy.FileID

// maxLiveFiles is how many paths beyond the miner's the intern table
// gives an id. A path first met past it is cold: it shares
// policy.ColdFile, keeps no per-file state, routes with no locality and
// is never prefetched, so a flood of distinct paths cannot grow the
// core or the policies' tables.
const maxLiveFiles = 1 << 16

// session is one tracked client connection, a slot of the session
// table's slab. Guarded by the table's mutex.
type session struct {
	id       int // -1 while the slot is free
	key      string
	server   int
	hasSrv   bool
	active   int    // requests currently in flight for this session
	lastPage FileID // ColdFile before the first page and after a cold one
}

// sessionTable is the core's session table under one leaf mutex: every
// tracked connection's record in one slab, byKey giving each key's
// slot, and dropped slots on free for reuse. Session ids come from one
// counter and are never reused, so a slot with the id found in it is a
// handle that outlives an unlock (see live), and the slab may grow and
// move under it.
type sessionTable struct {
	mu    sync.Mutex
	seq   int
	byKey map[string]int32
	slab  []session
	free  []int32
}

// live returns the record slot k holds for session id, or nil when the
// session has been dropped since, so a handle never touches the slot's
// next session. Callers hold the mutex.
func (sh *sessionTable) live(k int32, id int) *session {
	if st := &sh.slab[k]; st.id == id {
		return st
	}
	return nil
}

// find returns key's record, or nil. Callers hold the mutex.
func (sh *sessionTable) find(key string) *session {
	if k, ok := sh.byKey[key]; ok {
		return &sh.slab[k]
	}
	return nil
}

// fileTable is the per-file routing state under one leaf mutex. Each
// path is interned once to a dense id — the miner's bundle paths at New
// in the miner's sorted order, any other path on first touch, up to
// maxLiveFiles more — and everything the core knows about a file lives
// in slices indexed by it: its record, and one cell per backend. In
// optimistic mode the cells also thread every backend's locality list,
// most recent first, bounded to LocalityEntries entries. Ids are never
// given back, so the slabs grow only to the cap.
type fileTable struct {
	mu    sync.Mutex
	ids   map[string]FileID
	paths []string    // by id
	files []fileState // by id
	// cells holds file id's cell at backend s at (id+1)*backends + s;
	// row 0 heads the backends' locality lists.
	cells    []cell
	objs     []FileID // the bundles' objects, fixed at New
	backends int
	limit    int   // ids given out before paths go cold
	entries  int   // optimistic mode: each locality list's bound
	localLen []int // optimistic mode: each locality list's length
}

// fileState is what the core tracks about one file.
type fileState struct {
	// held is the backends believed to hold the file: ground truth in
	// exact mode, membership of their locality lists otherwise.
	held       ServerSet
	prefetched ServerSet // backends with a prefetch mark
	busy       ServerSet // backends with a request in flight
	fileMeta
}

// fileMeta is what a path's id carries from its first touch, so no
// request classifies a path or looks up a bundle.
type fileMeta struct {
	embedded, dynamic bool   // the path's extension kind
	parent            FileID // the bundle page it belongs to, or ColdFile
	objLo, objHi      int32  // its bundle's objects: objs[objLo:objHi]
}

// cell is one file at one backend: its requests in flight there and,
// in optimistic mode, its links in the backend's locality list.
type cell struct{ flight, prev, next int32 }

// init builds the table, interning the bundles' paths (b may be nil).
func (f *fileTable) init(backends int, exact bool, entries int64, b *mining.Bundles) {
	var mined []string
	if b != nil {
		mined = b.Paths()
	}
	f.ids = make(map[string]FileID, len(mined))
	f.paths = make([]string, 0, len(mined))
	f.files = make([]fileState, 0, len(mined))
	f.cells = make([]cell, backends, (len(mined)+1)*backends)
	f.backends, f.limit = backends, len(mined)+maxLiveFiles
	if !exact {
		f.entries, f.localLen = int(entries), make([]int, backends)
		for s := range backends {
			f.cells[s].prev, f.cells[s].next = int32(s), int32(s)
		}
	}
	for _, p := range mined {
		f.add(p)
	}
	for id, p := range mined {
		m := &f.files[id].fileMeta
		if parent, ok := b.Parent(p); ok {
			m.parent = f.ids[parent]
		}
		m.objLo = int32(len(f.objs))
		for _, obj := range b.Objects(p) {
			f.objs = append(f.objs, f.ids[obj])
		}
		m.objHi = int32(len(f.objs))
	}
}

// classify works out the facts a path carries outside the bundles.
func classify(path string) fileMeta {
	return fileMeta{embedded: trace.IsEmbeddedPath(path), dynamic: trace.IsDynamicPath(path), parent: policy.ColdFile}
}

// add gives path the next id. Callers hold the mutex.
func (f *fileTable) add(path string) FileID {
	id := FileID(len(f.files))
	f.ids[path] = id
	f.paths = append(f.paths, path)
	f.files = append(f.files, fileState{fileMeta: classify(path)})
	f.cells = append(f.cells, make([]cell, f.backends)...)
	return id
}

// lookup returns path's id, giving a path met for the first time the
// next id while the table is under its cap and ColdFile past it.
// Callers hold the mutex.
func (f *fileTable) lookup(path string) FileID {
	if id, ok := f.ids[path]; ok {
		return id
	}
	if len(f.files) >= f.limit {
		return policy.ColdFile
	}
	return f.add(path)
}

// intern looks path up and returns its id with a copy of its record. A
// cold path's record is empty but for the facts worked out for this
// call alone.
func (c *Core) intern(path string) (FileID, fileState) {
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	if id := f.lookup(path); id >= 0 {
		return id, f.files[id]
	}
	return policy.ColdFile, fileState{fileMeta: classify(path)}
}

// objects returns a file's bundle objects. The list is fixed at New,
// so no lock is needed.
func (f *fileTable) objects(m fileMeta) []FileID { return f.objs[m.objLo:m.objHi] }

// at returns the index of id's cell at server.
func (f *fileTable) at(id FileID, server int) int32 {
	return int32((int(id)+1)*f.backends + server)
}

// unmark drops id's prefetch mark at server and reports whether one was
// set. Callers hold the mutex.
func (f *fileTable) unmark(id FileID, server int) bool {
	if id < 0 || !f.files[id].prefetched.Has(server) {
		return false
	}
	f.files[id].prefetched = f.files[id].prefetched.Remove(server)
	return true
}

// touch makes id the most recent entry of server's locality list and
// drops the least recent one past the bound. Callers hold the mutex.
func (f *fileTable) touch(server int, id FileID) {
	fs, n := &f.files[id], f.at(id, server)
	if fs.held.Has(server) {
		f.unlink(n)
	} else {
		fs.held = fs.held.Add(server)
		f.localLen[server]++
	}
	head := &f.cells[server]
	f.cells[n].prev, f.cells[n].next = int32(server), head.next
	f.cells[head.next].prev, head.next = n, n
	if f.localLen[server] > f.entries {
		f.forget(server, FileID(int(head.prev)/f.backends-1))
	}
}

// forget drops id from server's locality list. Callers hold the mutex.
func (f *fileTable) forget(server int, id FileID) {
	if fs := &f.files[id]; fs.held.Has(server) {
		f.unlink(f.at(id, server))
		fs.held = fs.held.Remove(server)
		f.localLen[server]--
	}
}

// unlink takes cell n out of its locality list.
func (f *fileTable) unlink(n int32) {
	cl := f.cells[n]
	f.cells[cl.prev].next, f.cells[cl.next].prev = cl.next, cl.prev
}

// lookupSession returns the slot of key's session, creating it if
// needed. A found-or-created session has active incremented as a
// reservation so a concurrent eviction pass cannot drop it before the
// caller books the request; every lookupSession is paired with a Done
// (or an explicit release on the unroutable path). snap is a copy of
// the session as found; the slot and snap.id are the caller's handle
// (see sessionTable). evicted lists the idle sessions the MaxSessions
// valve dropped; the caller must pass them to closeIDs after releasing
// every lock.
func (c *Core) lookupSession(key string) (k int32, snap session, evicted []int) {
	sh := &c.sessions
	sh.mu.Lock()
	k, ok := sh.byKey[key]
	if !ok {
		if len(sh.byKey) >= c.cfg.MaxSessions {
			evicted = sh.evictIdle()
		}
		if n := len(sh.free); n > 0 {
			k, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			k = int32(len(sh.slab))
			sh.slab = append(sh.slab, session{})
		}
		sh.slab[k] = session{id: sh.seq, key: key, lastPage: policy.ColdFile}
		sh.seq++
		sh.byKey[key] = k
	}
	st := &sh.slab[k]
	st.active++
	snap = *st
	sh.mu.Unlock()
	return k, snap, evicted
}

// evictIdle drops every session with no request in flight. Sessions
// mid-request keep their binding; if every session is busy the table
// temporarily grows past its bound instead of yanking state out from
// under in-flight requests. Callers hold the table's mutex and must
// closeIDs the returned ids after releasing it.
func (sh *sessionTable) evictIdle() (evicted []int) {
	for k := range sh.slab {
		if st := &sh.slab[k]; st.id >= 0 && st.active == 0 {
			evicted = append(evicted, st.id)
			sh.drop(int32(k))
		}
	}
	sort.Ints(evicted)
	return evicted
}

// drop removes slot k's session from the table and frees the slot. A
// handle to it from before the drop finds the slot no longer holds its
// id. Callers hold the table's mutex.
func (sh *sessionTable) drop(k int32) {
	delete(sh.byKey, sh.slab[k].key)
	sh.slab[k] = session{id: -1}
	sh.free = append(sh.free, k)
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
	if k, ok := sh.byKey[key]; ok {
		id = sh.slab[k].id
		sh.drop(k)
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

// getView borrows a view of one decision for the session Route found
// as st and the file it interned as id with record fs.
func (c *Core) getView(st session, id FileID, fs fileState, avail, accept ServerSet) *coreView {
	v := viewPool.Get().(*coreView)
	v.c, v.st, v.file, v.fs, v.avail, v.accept = c, st, id, fs, avail, accept
	return v
}

// put returns a view to the pool, dropping its references.
func (v *coreView) put() {
	v.c, v.st.key = nil, ""
	viewPool.Put(v)
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
// only about the deciding request's own connection, and about the
// request's own file first of all, so the view answers from the copies
// of the session and the file's record Route took when it looked them
// up.
type coreView struct {
	c      *Core
	st     session   // the deciding request's session
	file   FileID    // the deciding request's file
	fs     fileState // file's record as Route interned it
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

func (v *coreView) ServersWith(file FileID) []int { return v.list(v.sets(file).held & v.accept) }

func (v *coreView) PrefetchedAt(file FileID) []int { return v.list(v.sets(file).prefetched & v.accept) }

// sets returns a copy of file's record: the deciding request's from
// Route's read, another's under the file table's mutex as a leaf, and
// the zero record for a cold path.
func (v *coreView) sets(file FileID) fileState {
	switch {
	case file == v.file:
		return v.fs
	case file < 0:
		return fileState{}
	}
	f := &v.c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.files[file]
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
func (v *coreView) InFlight(file FileID) (int, bool) {
	busy := v.sets(file).busy & v.accept
	if busy.Empty() {
		return 0, false
	}
	return bits.TrailingZeros64(uint64(busy)), true
}

func (v *coreView) LastServer(conn int) (int, bool) {
	server := v.st.server
	if conn != v.st.id || !v.st.hasSrv || !v.avail.Has(server) {
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
	c.noteHeld(server, file, true)
}

// NoteGone records that a backend no longer holds file (eviction or
// crash); any prefetch mark there falls with it. Exact mode only.
func (c *Core) NoteGone(server int, file string) {
	c.noteHeld(server, file, false)
}

// noteHeld is NoteResident (held) and NoteGone.
func (c *Core) noteHeld(server int, file string, held bool) {
	if !c.cfg.Exact {
		return
	}
	id, _ := c.intern(file)
	if id < 0 {
		return
	}
	f := &c.files
	f.mu.Lock()
	fs := &f.files[id]
	if held {
		fs.held = fs.held.Add(server)
	} else {
		fs.held = fs.held.Remove(server)
		fs.prefetched = fs.prefetched.Remove(server)
	}
	f.mu.Unlock()
}

// PrefetchedHere reports whether file carries a prefetch mark at the
// backend (the simulator's piggyback check: a prefetch disk read is in
// progress or completed there).
func (c *Core) PrefetchedHere(server int, file string) bool {
	_, fs := c.intern(file)
	return fs.prefetched.Has(server)
}

// ConsumePrefetch clears file's prefetch mark at the backend and
// reports whether one was present — a prefetch hit.
func (c *Core) ConsumePrefetch(server int, file string) bool {
	id, _ := c.intern(file)
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.unmark(id, server)
}

// UnmarkPrefetch drops file's prefetch mark at the backend without
// counting a hit (the placement failed or was invalidated).
func (c *Core) UnmarkPrefetch(server int, file string) {
	c.ConsumePrefetch(server, file)
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

// LocalityLen returns the optimistic locality list's entry count for a
// backend (0 in exact mode, where residency is adapter ground truth).
func (c *Core) LocalityLen(server int) int {
	if c.cfg.Exact {
		return 0
	}
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.localLen[server]
}

// LocalityContains reports whether the core believes a backend holds
// file (either locality mode).
func (c *Core) LocalityContains(server int, file string) bool {
	_, fs := c.intern(file)
	return fs.held.Has(server)
}

// ResidencySnapshot returns the exact-mode residency map: file ->
// holding backends, ascending. Nil in optimistic mode.
func (c *Core) ResidencySnapshot() map[string][]int {
	if !c.cfg.Exact {
		return nil
	}
	return c.setsByFile(func(fs *fileState) ServerSet { return fs.held })
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
	for id := range f.files {
		if m := set(&f.files[id]); !m.Empty() {
			out[f.paths[id]] = m.AppendTo(nil)
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
	for k := range sh.slab {
		st := &sh.slab[k]
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
// records whose busy set is not empty.
func (c *Core) InFlightFiles() int {
	return len(c.setsByFile(func(fs *fileState) ServerSet { return fs.busy }))
}
