package trace

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"strconv"
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

// refSessions is the map grouping Sessions replaced: request indices by
// session id, each slice in arrival order, counted first and carved out
// of one backing array.
func refSessions(t *Trace) map[int][]int {
	// slot numbers the sessions by first appearance; next[k] holds slot
	// k's request count, then the place of its next index in backing.
	slot := make(map[int]int)
	var next []int
	for i := range t.Requests {
		s := t.Requests[i].Session
		k, seen := slot[s]
		if !seen {
			k = len(next)
			slot[s] = k
			next = append(next, 0)
		}
		next[k]++
	}
	off := 0
	for k, n := range next {
		next[k] = off
		off += n
	}
	backing := make([]int, len(t.Requests))
	for i := range t.Requests {
		k := slot[t.Requests[i].Session]
		backing[next[k]] = i
		next[k]++
	}
	// Every next[k] has advanced to its slot's end, where slot k+1 starts.
	m := make(map[int][]int, len(slot))
	for s, k := range slot {
		start := 0
		if k > 0 {
			start = next[k-1]
		}
		m[s] = backing[start:next[k]:next[k]]
	}
	return m
}

// refScripts builds one script per refSessions group, in ascending id.
func refScripts(t *Trace) []SessionScript {
	var out []SessionScript
	for id, idxs := range refSessions(t) {
		first := &t.Requests[idxs[0]]
		out = append(out, SessionScript{ID: id, Client: first.Client, Start: first.Time, Reqs: idxs})
	}
	slices.SortFunc(out, func(a, b SessionScript) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// FuzzSessionScripts holds Sessions and SessionScripts to the map
// grouping on session ids drawn from the input: dense from 0, the
// offset range of a split's second half, and sparse ids spread over the
// whole int range, whose span overflows an int.
func FuzzSessionScripts(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 0, 3, 3, 1, 0, 2, 2, 1, 0}, uint8(0))
	f.Add([]byte{5, 5, 1, 7, 0, 3, 4, 4, 6, 2, 1}, uint8(1))
	f.Add([]byte{0, 255, 128, 0, 1, 255, 127, 128}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		tr := &Trace{Name: "fuzz"}
		for i, b := range data {
			s := int(b % 8)
			if mode%3 == 2 {
				s = (int(b) - 128) * (math.MaxInt / 128)
			}
			tr.Requests = append(tr.Requests, Request{
				Time: time.Duration(i / 2), Session: s, Client: strconv.Itoa(i),
			})
		}
		if mode%3 == 1 {
			_, tr = tr.Split(float64(mode) / 255)
		}
		want := refScripts(tr)
		got := tr.Sessions()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Sessions() = %+v, want %+v", got, want)
		}
		for _, s := range got {
			if cap(s.Reqs) != len(s.Reqs) {
				t.Fatalf("session %d: cap %d beyond len %d", s.ID, cap(s.Reqs), len(s.Reqs))
			}
		}
		slices.SortFunc(want, func(a, b SessionScript) int {
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		if got := tr.SessionScripts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("SessionScripts() = %+v, want %+v", got, want)
		}
	})
}

// denseSessions is a trace of n interleaved sessions of three requests
// each.
func denseSessions(n int) *Trace {
	tr := &Trace{Name: "dense", Requests: make([]Request, 3*n)}
	for i := range tr.Requests {
		tr.Requests[i] = Request{Time: time.Duration(i), Session: i % n}
	}
	return tr
}

// TestSessionScriptsAllocs: grouping costs the same allocations for a
// thousand sessions as for thirty thousand, so no allocation is made
// per session.
func TestSessionScriptsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	small, large := denseSessions(1000), denseSessions(30000)
	a := testing.AllocsPerRun(5, func() { small.SessionScripts() })
	b := testing.AllocsPerRun(5, func() { large.SessionScripts() })
	if a != b {
		t.Errorf("SessionScripts allocates %.0f objects for 1,000 sessions and %.0f for 30,000; want the same", a, b)
	}
}

var sinkScripts []SessionScript

// BenchmarkSessionScripts groups WorldCup at scale 0.05 (about 45,000
// requests) into replay scripts.
func BenchmarkSessionScripts(b *testing.B) {
	_, tr, err := GeneratePreset(PresetWorldCup, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkScripts = tr.SessionScripts()
	}
}
