package trace

import (
	"testing"
	"time"
)

func sessionTestTrace() *Trace {
	files := map[string]int64{"/a.html": 100, "/b.html": 200, "/c.html": 300}
	tr := &Trace{Name: "s", Files: files}
	add := func(at time.Duration, sess int, path string) {
		tr.Requests = append(tr.Requests, Request{
			Time: at, Session: sess, Client: "c", Path: path, Size: files[path],
		})
	}
	// Session 2 starts first, session 0 and 1 tie on start time.
	add(1*time.Second, 2, "/a.html")
	add(2*time.Second, 0, "/b.html")
	add(2*time.Second, 1, "/c.html")
	add(3*time.Second, 2, "/b.html")
	add(4*time.Second, 0, "/a.html")
	tr.SortByTime()
	return tr
}

func TestSessionScriptsOrder(t *testing.T) {
	tr := sessionTestTrace()
	scripts := tr.SessionScripts()
	if len(scripts) != 3 {
		t.Fatalf("got %d scripts, want 3", len(scripts))
	}
	// Replay order: by first arrival, ties by session id.
	wantIDs := []int{2, 0, 1}
	for i, want := range wantIDs {
		if scripts[i].ID != want {
			t.Fatalf("scripts[%d].ID = %d, want %d (order %v)", i, scripts[i].ID, want, wantIDs)
		}
	}
	s2 := scripts[0]
	if s2.Start != time.Second || len(s2.Reqs) != 2 {
		t.Fatalf("session 2 script = %+v", s2)
	}
	if got := tr.Requests[s2.Reqs[1]].Path; got != "/b.html" {
		t.Fatalf("session 2 second request = %q, want /b.html", got)
	}
}

func TestSessionScriptsDeterministic(t *testing.T) {
	tr := sessionTestTrace()
	a := tr.SessionScripts()
	b := tr.SessionScripts()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Start != b[i].Start {
			t.Fatalf("script order differs between calls at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
