package dispatch

import (
	"fmt"
	"testing"
	"time"

	"prord/internal/policy"
)

// TestSessionRecycling checks the session slab's free list: a slot
// dropped by CloseConn or by the idle-eviction valve comes back for a
// new connection with a fresh id and nothing of its previous life — no
// binding or last page — while the valve never drops a session with a
// request in flight. A handle taken before a drop no longer finds its
// id in the slot, so a caller between Route and Done can never write
// into the next connection's state.
func TestSessionRecycling(t *testing.T) {
	c, err := New(Config{Backends: 4, Policy: policy.NewPRORD(policy.Thresholds{}), MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	sh := &c.sessions
	record := func(key string) (int32, session) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		k, ok := sh.byKey[key]
		if !ok {
			t.Fatalf("%s is not tracked", key)
		}
		return k, sh.slab[k]
	}
	// used routes one request on key and gives its record a history.
	used := func(key string) (int32, session) {
		out := c.Route(key, "/index.html", 100, now)
		c.Done(key, out.Server, "/index.html", false, false)
		k, st := record(key)
		if page, _ := c.intern("/index.html"); !st.hasSrv || st.lastPage != page {
			t.Fatalf("%s: bound %v, last page %d after a routed page", key, st.hasSrv, st.lastPage)
		}
		return k, st
	}
	fresh := func(st session, key string, oldID int) {
		t.Helper()
		if st.key != key || st.id == oldID || st.hasSrv || st.lastPage != policy.ColdFile || st.active != 1 {
			t.Fatalf("recycled record for %s carries its past: %+v (old id %d)", key, st, oldID)
		}
	}

	// CloseConn recycles an idle slot.
	oldK, old := used("a")
	c.CloseConn("a")
	k, st, _ := c.lookupSession("b")
	if k != oldK {
		t.Fatal("CloseConn of an idle session did not recycle its slot")
	}
	fresh(st, "b", old.id)
	out := c.Route("b", "/b.html", 100, now) // Route's own reservation
	if out.HadServer {
		t.Error("a recycled session routed as already bound")
	}
	c.Done("b", out.Server, "/b.html", false, false)
	c.Done("b", out.Server, "/b.html", false, false) // lookupSession's reservation

	// A handle to a session closed mid-request finds nothing once the
	// slot is reused.
	busyK, busy, _ := c.lookupSession("busy")
	c.CloseConn("busy")
	otherK, other, _ := c.lookupSession("other")
	if otherK != busyK {
		t.Fatal("CloseConn did not free the slot of a session closed mid-request")
	}
	sh.mu.Lock()
	stale := sh.live(busyK, busy.id)
	sh.mu.Unlock()
	if stale != nil {
		t.Fatal("a handle from before the drop still finds a record")
	}
	if _, got := record("other"); got != other {
		t.Fatalf("the reused slot changed: %+v, want %+v", got, other)
	}
	c.CloseConn("other")

	// The idle-eviction valve recycles idle slots and skips busy ones.
	c.CloseConn("b")
	pinnedK, _, _ := c.lookupSession("pinned") // stays in flight
	idle := map[int32]int{}
	for i := 0; len(sh.byKey) < c.cfg.MaxSessions; i++ {
		k, st := used(fmt.Sprintf("idle%d", i))
		idle[k] = st.id
	}
	k, st, evicted := c.lookupSession("new")
	c.closeIDs(evicted)
	oldID, ok := idle[k]
	if !ok {
		t.Fatal("the eviction valve did not recycle an idle slot")
	}
	fresh(st, "new", oldID)
	if k, st := record("pinned"); k != pinnedK || st.active != 1 {
		t.Fatal("the eviction valve dropped a session with a request in flight")
	}
	sh.mu.Lock()
	for _, f := range sh.free {
		if f == pinnedK || sh.slab[f].id >= 0 {
			t.Errorf("free list holds a live slot %d: %+v", f, sh.slab[f])
		}
	}
	sh.mu.Unlock()
}
