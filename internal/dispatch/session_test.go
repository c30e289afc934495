package dispatch

import (
	"fmt"
	"testing"
	"time"

	"prord/internal/policy"
)

// TestSessionRecycling checks the session table's free list: a record
// dropped by CloseConn or by the idle-eviction valve comes back for a
// new connection with a fresh id and nothing of its previous life — no
// binding or last page — while a record with a request in flight is
// never reused, so a caller between Route and Done can never write into
// another connection's state.
func TestSessionRecycling(t *testing.T) {
	c, err := New(Config{Backends: 4, Policy: policy.NewPRORD(policy.Thresholds{}), MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	sh := &c.sessions
	record := func(key string) *session {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.byKey[key]
	}
	// used routes one request on key and gives its record a history.
	used := func(key string) *session {
		out := c.Route(key, "/index.html", 100, now)
		c.Done(key, out.Server, "/index.html", false, false)
		st := record(key)
		if page, _ := c.intern("/index.html"); !st.hasSrv || st.lastPage != page {
			t.Fatalf("%s: bound %v, last page %d after a routed page", key, st.hasSrv, st.lastPage)
		}
		return st
	}
	fresh := func(st *session, key string, oldID int) {
		t.Helper()
		if st.key != key || st.id == oldID || st.hasSrv || st.lastPage != policy.ColdFile || st.active != 1 {
			t.Fatalf("recycled record for %s carries its past: %+v (old id %d)", key, *st, oldID)
		}
	}

	// CloseConn recycles an idle record.
	old := used("a")
	oldID := old.id
	c.CloseConn("a")
	st, _, _ := c.lookupSession("b")
	if st != old {
		t.Fatal("CloseConn of an idle session did not recycle its record")
	}
	fresh(st, "b", oldID)
	out := c.Route("b", "/b.html", 100, now) // Route's own reservation
	if out.HadServer {
		t.Error("a recycled session routed as already bound")
	}
	c.Done("b", out.Server, "/b.html", false, false)
	c.Done("b", out.Server, "/b.html", false, false) // lookupSession's reservation

	// A session closed mid-request keeps its record.
	busy, _, _ := c.lookupSession("busy")
	busyID := busy.id
	c.CloseConn("busy")
	if st, _, _ := c.lookupSession("other"); st == busy {
		t.Fatal("a session with a request in flight was recycled")
	}
	if busy.id != busyID || busy.key != "busy" || busy.active != 1 {
		t.Fatalf("the in-flight record changed after CloseConn: %+v", *busy)
	}
	c.CloseConn("other")

	// The idle-eviction valve recycles idle records and skips busy ones.
	c.CloseConn("b")
	pinned, _, _ := c.lookupSession("pinned") // stays in flight
	idle := map[*session]int{}
	for i := 0; len(sh.byKey) < c.cfg.MaxSessions; i++ {
		st := used(fmt.Sprintf("idle%d", i))
		idle[st] = st.id
	}
	st, _, evicted := c.lookupSession("new")
	c.closeIDs(evicted)
	oldID, ok := idle[st]
	if !ok {
		t.Fatal("the eviction valve did not recycle an idle record")
	}
	fresh(st, "new", oldID)
	if record("pinned") != pinned || pinned.active != 1 {
		t.Fatal("the eviction valve dropped a session with a request in flight")
	}
	sh.mu.Lock()
	for _, f := range sh.free {
		if f == pinned || f.active != 0 {
			t.Errorf("free list holds a busy record: %+v", *f)
		}
	}
	sh.mu.Unlock()
}
