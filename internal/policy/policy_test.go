package policy

import (
	"testing"
	"testing/quick"
)

// fakeView is a scriptable View for policy unit tests.
type fakeView struct {
	loads      []int
	serversFor map[FileID][]int
	prefetched map[FileID][]int
	inflight   map[FileID]int
	last       map[int]int
}

func newFakeView(loads ...int) *fakeView {
	return &fakeView{
		loads:      loads,
		serversFor: make(map[FileID][]int),
		prefetched: make(map[FileID][]int),
		inflight:   make(map[FileID]int),
		last:       make(map[int]int),
	}
}

func (v *fakeView) NumServers() int               { return len(v.loads) }
func (v *fakeView) Load(i int) int                { return v.loads[i] }
func (v *fakeView) ServersWith(f FileID) []int    { return v.serversFor[f] }
func (v *fakeView) PrefetchedAt(f FileID) []int   { return v.prefetched[f] }
func (v *fakeView) InFlight(f FileID) (int, bool) { s, ok := v.inflight[f]; return s, ok }
func (v *fakeView) LastServer(c int) (int, bool)  { s, ok := v.last[c]; return s, ok }

// The files the tests route, by id.
const (
	fileA FileID = iota
	fileB
	fileC
	fileHot
	fileX
	fileImg
	fileY
	fileZ
)

func TestLeastLoaded(t *testing.T) {
	v := newFakeView(5, 2, 2, 9)
	if got := LeastLoaded(v); got != 1 {
		t.Fatalf("LeastLoaded = %d, want 1 (lowest index tie-break)", got)
	}
	if got := LeastLoadedOf(v, []int{3, 2}); got != 2 {
		t.Fatalf("LeastLoadedOf = %d, want 2", got)
	}
}

func TestLeastLoadedOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LeastLoadedOf(newFakeView(1), nil)
}

func TestWRRRoundRobin(t *testing.T) {
	p := NewWRR(3)
	v := newFakeView(0, 0, 0)
	var got []int
	for conn := 0; conn < 6; conn++ {
		d := p.Route(Request{Conn: conn, File: fileX, First: true}, v)
		if d.Dispatch {
			t.Fatal("WRR must never dispatch")
		}
		if !d.Handoff {
			t.Fatal("first request on a connection needs a handoff")
		}
		got = append(got, d.Server)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", got, want)
		}
	}
}

func TestWRRWeights(t *testing.T) {
	p := NewWeightedWRR([]int{2, 1})
	v := newFakeView(0, 0)
	var got []int
	for conn := 0; conn < 6; conn++ {
		got = append(got, p.Route(Request{Conn: conn, First: true}, v).Server)
	}
	want := []int{0, 0, 1, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weighted order = %v, want %v", got, want)
		}
	}
}

func TestWRRConnectionAffinity(t *testing.T) {
	p := NewWRR(3)
	v := newFakeView(0, 0, 0)
	d1 := p.Route(Request{Conn: 7, First: true}, v)
	v.last[7] = d1.Server
	d2 := p.Route(Request{Conn: 7}, v)
	if d2.Server != d1.Server || d2.Handoff {
		t.Fatalf("connection must stay on %d without handoff, got %+v", d1.Server, d2)
	}
}

func TestWRRInvalidWeights(t *testing.T) {
	p := NewWeightedWRR([]int{0, -5})
	v := newFakeView(0, 0)
	a := p.Route(Request{Conn: 0, First: true}, v).Server
	b := p.Route(Request{Conn: 1, First: true}, v).Server
	if a != 0 || b != 1 {
		t.Fatalf("non-positive weights lift to 1: got %d, %d", a, b)
	}
}

func TestLARDFirstRequestAssignsLeastLoaded(t *testing.T) {
	p := NewLARD(Thresholds{})
	v := newFakeView(4, 1, 3)
	d := p.Route(Request{Conn: 1, File: fileA, First: true}, v)
	if d.Server != 1 || !d.Dispatch || !d.Handoff {
		t.Fatalf("first LARD route = %+v, want server 1 with dispatch+handoff", d)
	}
	// Same target for the same path on a new connection.
	d2 := p.Route(Request{Conn: 2, File: fileA, First: true}, v)
	if d2.Server != 1 {
		t.Fatalf("LARD target for /a moved to %d", d2.Server)
	}
}

func TestLARDConnConnectionPinned(t *testing.T) {
	p := NewConnLARD(Thresholds{})
	v := newFakeView(0, 0)
	v.last[5] = 1
	d := p.Route(Request{Conn: 5, File: fileB}, v)
	if d.Server != 1 || d.Handoff {
		t.Fatalf("pinned connection should stay: %+v", d)
	}
	if !d.Dispatch {
		t.Fatal("LARD is content-aware: it still consults the dispatcher")
	}
}

func TestLARDRebalanceOnOverload(t *testing.T) {
	p := NewLARD(Thresholds{Low: 5, High: 10})
	v := newFakeView(0, 0)
	p.Route(Request{Conn: 1, File: fileHot, First: true}, v) // assigns server 0
	v.loads[0] = 11                                          // above High, and server 1 below Low
	d := p.Route(Request{Conn: 2, File: fileHot, First: true}, v)
	if d.Server != 1 {
		t.Fatalf("overloaded target should move to 1, got %+v", d)
	}
}

func TestLARDRebalanceOnExtremeLoadEvenWithoutIdleNode(t *testing.T) {
	p := NewLARD(Thresholds{Low: 5, High: 10})
	v := newFakeView(0, 8) // server 1 not below Low
	p.Route(Request{Conn: 1, File: fileHot, First: true}, v)
	v.loads[0] = 21 // > 2*High
	d := p.Route(Request{Conn: 2, File: fileHot, First: true}, v)
	if d.Server != 1 {
		t.Fatalf("2*Thigh rule should trigger, got %+v", d)
	}
}

func TestLARDPerRequestHandoffs(t *testing.T) {
	p := NewLARD(Thresholds{})
	v := newFakeView(0, 5)
	d1 := p.Route(Request{Conn: 1, File: fileA, First: true}, v)
	if d1.Server != 0 || !d1.Handoff || !d1.Dispatch {
		t.Fatalf("d1 = %+v", d1)
	}
	v.last[1] = d1.Server
	// /b is unassigned; least loaded is still 0 -> no handoff.
	d2 := p.Route(Request{Conn: 1, File: fileB}, v)
	if d2.Server != 0 || d2.Handoff {
		t.Fatalf("same-server follow-up should not hand off: %+v", d2)
	}
	// Assign /c to server 1 by loading server 0.
	v.loads[0], v.loads[1] = 9, 0
	d3 := p.Route(Request{Conn: 1, File: fileC}, v)
	if d3.Server != 1 || !d3.Handoff {
		t.Fatalf("server change must hand off: %+v", d3)
	}
}

func TestLARDRGrowsReplicaSet(t *testing.T) {
	p := NewLARDR(Thresholds{Low: 2, High: 4})
	v := newFakeView(0, 0, 0)
	d1 := p.Route(Request{Conn: 1, File: fileHot, First: true}, v)
	if d1.Server != 0 {
		t.Fatalf("d1 = %+v", d1)
	}
	v.loads[0] = 5 // overload; server 1 below Low
	d2 := p.Route(Request{Conn: 2, File: fileHot, First: true}, v)
	if d2.Server != 1 {
		t.Fatalf("set should grow to include 1, got %+v", d2)
	}
	// Now both 0 and 1 are in the set; request goes to least loaded of them.
	v.loads[0], v.loads[1] = 3, 2
	d3 := p.Route(Request{Conn: 3, File: fileHot, First: true}, v)
	if d3.Server != 1 {
		t.Fatalf("least-loaded set member should serve, got %+v", d3)
	}
}

func TestExtLARDPullsRemoteContent(t *testing.T) {
	p := NewExtLARD(Thresholds{})
	v := newFakeView(0, 0)
	d1 := p.Route(Request{Conn: 1, File: fileA, First: true}, v)
	if !d1.Handoff || d1.Source != -1 {
		t.Fatalf("d1 = %+v", d1)
	}
	v.last[1] = d1.Server
	v.serversFor[fileB] = []int{1}
	d2 := p.Route(Request{Conn: 1, File: fileB}, v)
	if d2.Server != d1.Server {
		t.Fatalf("connection must not move: %+v", d2)
	}
	if d2.Source != 1 {
		t.Fatalf("content should be pulled from backend 1: %+v", d2)
	}
	if d2.Handoff {
		t.Fatal("backend forwarding avoids handoffs after the first")
	}
	// Local content: no remote pull.
	v.serversFor[fileC] = []int{d1.Server}
	d3 := p.Route(Request{Conn: 1, File: fileC}, v)
	if d3.Source != -1 {
		t.Fatalf("local content should not be pulled remotely: %+v", d3)
	}
}

func TestPRORDEmbeddedFastPath(t *testing.T) {
	p := NewPRORD(Thresholds{})
	v := newFakeView(9, 0)
	v.last[1] = 0
	d := p.Route(Request{Conn: 1, File: fileImg, Embedded: true}, v)
	if d.Server != 0 || d.Dispatch || d.Handoff {
		t.Fatalf("embedded object must follow previous request without dispatch: %+v", d)
	}
}

func TestPRORDInFlightFastPath(t *testing.T) {
	p := NewPRORD(Thresholds{})
	v := newFakeView(0, 0)
	v.inflight[fileX] = 1
	d := p.Route(Request{Conn: 1, File: fileX, First: true}, v)
	if d.Server != 1 || d.Dispatch {
		t.Fatalf("in-flight request should piggyback without dispatch: %+v", d)
	}
}

func TestPRORDPrefetchedFastPath(t *testing.T) {
	p := NewPRORD(Thresholds{})
	v := newFakeView(3, 1, 9)
	v.prefetched[fileX] = []int{0, 2}
	d := p.Route(Request{Conn: 1, File: fileX, First: true}, v)
	if d.Server != 0 || d.Dispatch {
		t.Fatalf("prefetched file should route to least-loaded prefetcher: %+v", d)
	}
}

func TestPRORDDispatchFallback(t *testing.T) {
	p := NewPRORD(Thresholds{})
	v := newFakeView(2, 1)
	v.serversFor[fileY] = []int{0}
	d := p.Route(Request{Conn: 1, File: fileY, First: true}, v)
	if d.Server != 0 || !d.Dispatch || !d.Handoff {
		t.Fatalf("memory holder should win with a dispatch: %+v", d)
	}
	// Unknown file: least loaded overall.
	d2 := p.Route(Request{Conn: 2, File: fileZ, First: true}, v)
	if d2.Server != 1 || !d2.Dispatch {
		t.Fatalf("unknown file goes to least loaded: %+v", d2)
	}
}

func TestPRORDOverloadProtection(t *testing.T) {
	p := NewPRORD(Thresholds{Low: 2, High: 4})
	v := newFakeView(9, 0)
	v.serversFor[fileY] = []int{0}
	d := p.Route(Request{Conn: 1, File: fileY, First: true}, v)
	if d.Server != 0 {
		// Overloaded holder should be bypassed.
		if d.Server != 1 {
			t.Fatalf("unexpected server %d", d.Server)
		}
	} else {
		t.Fatalf("overloaded holder must be bypassed: %+v", d)
	}
}

func TestPRORDNoHandoffWhenStaying(t *testing.T) {
	p := NewPRORD(Thresholds{})
	v := newFakeView(0, 9)
	v.last[1] = 0
	v.serversFor[fileY] = []int{0}
	d := p.Route(Request{Conn: 1, File: fileY}, v)
	if d.Server != 0 || d.Handoff {
		t.Fatalf("staying on the same backend needs no handoff: %+v", d)
	}
}

func TestPRORDEmbeddedWithoutHistoryFallsThrough(t *testing.T) {
	p := NewPRORD(Thresholds{})
	v := newFakeView(1, 0)
	// Embedded flagged but no previous server known (e.g. trace import
	// glitch): must fall through to the normal path, not crash.
	d := p.Route(Request{Conn: 99, File: fileImg, Embedded: true, First: true}, v)
	if d.Server != 1 || !d.Dispatch {
		t.Fatalf("fallthrough = %+v", d)
	}
}

// TestColdFileKeepsNoState routes ColdFile through every LARD-family
// policy: each sends it to the least-loaded backend every time, with no
// stickiness, and no target table grows for it.
func TestColdFileKeepsNoState(t *testing.T) {
	lard, connLARD, ext, prord, lardr := NewLARD(Thresholds{}), NewConnLARD(Thresholds{}), NewExtLARD(Thresholds{}), NewPRORD(Thresholds{}), NewLARDR(Thresholds{})
	for _, p := range []Policy{lard, connLARD, ext, prord, lardr} {
		for conn, want := range []int{1, 0} {
			v := newFakeView(3, 1, 2)
			if want == 0 {
				v.loads[0] = 0
			}
			if d := p.Route(Request{Conn: conn, File: ColdFile, First: true}, v); d.Server != want {
				t.Errorf("%s routed a cold file to %d, want the least-loaded %d", p.Name(), d.Server, want)
			}
		}
	}
	for _, tt := range []*targetTable{lard.target, connLARD.target, ext.target, prord.target, lardr.targets} {
		if len(tt.m) != 0 || len(tt.sets) != 0 {
			t.Errorf("a target table grew to %d targets and %d sets for a cold file", len(tt.m), len(tt.sets))
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name, 4, Thresholds{})
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
	}
	if _, err := ByName("nope", 4, Thresholds{}); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestThresholdDefaults(t *testing.T) {
	p := NewLARD(Thresholds{Low: -1, High: 0})
	if p.T != DefaultThresholds() {
		t.Fatalf("invalid thresholds should fall back to defaults, got %+v", p.T)
	}
	custom := Thresholds{Low: 3, High: 7}
	if NewLARD(custom).T != custom {
		t.Fatal("valid custom thresholds should be kept")
	}
}

// TestPoliciesAlwaysRouteValidProperty drives every policy with randomized
// view states and request streams: Route must always return a valid server
// and a non-negative Source, never panic, and respect the View contract.
func TestPoliciesAlwaysRouteValidProperty(t *testing.T) {
	f := func(ops []uint16, nServers uint8) bool {
		n := int(nServers%7) + 2
		v := newFakeView(make([]int, n)...)
		pols := []Policy{
			NewWRR(n),
			NewConnLARD(Thresholds{}),
			NewLARD(Thresholds{}),
			NewLARDR(Thresholds{}),
			NewExtLARD(Thresholds{}),
			NewPRORD(Thresholds{}),
		}
		for i, op := range ops {
			conn := int(op % 5)
			file := FileID(op % 11)
			// Randomize the view.
			v.loads[int(op)%n] = int(op % 97)
			switch op % 4 {
			case 0:
				v.serversFor[file] = []int{int(op) % n}
			case 1:
				v.prefetched[file] = []int{int(op+1) % n}
			case 2:
				v.inflight[file] = int(op+2) % n
			}
			for _, p := range pols {
				d := p.Route(Request{
					Conn:     conn,
					File:     file,
					Embedded: op%5 == 0,
					First:    i == 0,
				}, v)
				if d.Server < 0 || d.Server >= n {
					t.Errorf("%s routed to invalid server %d of %d", p.Name(), d.Server, n)
					return false
				}
				if d.Source >= n {
					t.Errorf("%s invalid source %d", p.Name(), d.Source)
					return false
				}
				// Emulate the cluster recording the last server.
				v.last[conn] = d.Server
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
