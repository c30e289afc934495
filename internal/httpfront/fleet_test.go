package httpfront

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"prord/internal/fleet"
	"prord/internal/policy"
)

// testFleet builds k in-process fleet replicas sharing one ring, one
// exchanger and one set of demo backends, with peers registered both
// ways. The gossip loop interval is set far out so tests drive
// gossipOnce deterministically by hand.
func testFleet(t *testing.T, k, backends int) ([]*Distributor, *fleet.Ring, *fleet.Exchanger) {
	t.Helper()
	members := make([]int, k)
	for i := range members {
		members[i] = i
	}
	ring, err := fleet.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	ex := fleet.NewExchanger()
	var urls []*url.URL
	for i := 0; i < backends; i++ {
		b := NewDemoBackend("b"+strconv.Itoa(i), testFiles, 1<<20, 0)
		srv := httptest.NewServer(b)
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, u)
	}
	var ds []*Distributor
	var handlers []http.Handler
	for i := 0; i < k; i++ {
		d, err := New(Config{
			Backends: urls,
			Policy:   policy.NewLARD(policy.Thresholds{}),
			Fleet: &FleetConfig{
				ReplicaID:      i,
				Ring:           ring,
				Exchanger:      ex,
				GossipInterval: time.Hour,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		ds = append(ds, d)
		handlers = append(handlers, d)
	}
	for _, d := range ds {
		d.SetPeers(handlers)
	}
	return ds, ring, ex
}

// fleetGet sends one request with a fixed client address through a
// replica's handler and returns the recorded response.
func fleetGet(t *testing.T, d *Distributor, addr, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = addr
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s via %s: status %d", path, addr, rec.Code)
	}
	return rec
}

func TestFleetConfigValidation(t *testing.T) {
	u, _ := url.Parse("http://localhost:1")
	base := Config{Backends: []*url.URL{u}, Policy: policy.NewWRR(1)}

	cfg := base
	cfg.Fleet = &FleetConfig{ReplicaID: 0}
	if _, err := New(cfg); err == nil {
		t.Fatal("Fleet without Ring/Exchanger should fail")
	}
	ring, _ := fleet.NewRing([]int{0, 1})
	cfg = base
	cfg.Fleet = &FleetConfig{ReplicaID: 7, Ring: ring, Exchanger: fleet.NewExchanger()}
	if _, err := New(cfg); err == nil {
		t.Fatal("ReplicaID outside the ring should fail")
	}
}

// TestFleetOwnershipAffinity is the session-affinity invariant: every
// request of a session is answered by the session's ring owner, no
// session is served by two replicas, and forwards are exactly the
// requests that entered through a non-owner.
func TestFleetOwnershipAffinity(t *testing.T) {
	ds, ring, _ := testFleet(t, 2, 2)
	served := make(map[string]map[string]bool) // session -> replica set
	var wantForwards [2]int64
	for s := 0; s < 40; s++ {
		addr := fmt.Sprintf("10.0.%d.1:4242", s)
		ingress := s % 2
		owner := ring.Owner(addr)
		for _, path := range []string{"/a.html", "/a.gif", "/b.html"} {
			if owner != ingress {
				wantForwards[ingress]++ // every request of a foreign session hops
			}
			rec := fleetGet(t, ds[ingress], addr, path)
			rep := rec.Header().Get(ReplicaHeader)
			if rep != strconv.Itoa(owner) {
				t.Fatalf("session %s (owner %d) answered by replica %s", addr, owner, rep)
			}
			if served[addr] == nil {
				served[addr] = make(map[string]bool)
			}
			served[addr][rep] = true
		}
	}
	for addr, reps := range served {
		if len(reps) != 1 {
			t.Errorf("session %s served by %d replicas: %v", addr, len(reps), reps)
		}
	}
	foreign := 0
	for i, d := range ds {
		cs := d.Core().Stats()
		if cs.FleetForwards != wantForwards[i] {
			t.Errorf("replica %d forwards = %d, want %d", i, cs.FleetForwards, wantForwards[i])
		}
		foreign += int(cs.FleetForwards)
	}
	if foreign == 0 {
		t.Fatal("no session landed on a non-owner; test layout degenerate")
	}
	// A forwarded request must never be tracked as a session at the
	// ingress replica: ownership is exclusive.
	for i, d := range ds {
		if own, total := d.Core().OwnedSessions(), d.Core().SessionCount(); own != total {
			t.Errorf("replica %d tracks %d sessions but owns only %d", i, total, own)
		}
	}
}

// TestForgedInternalHeadersChangeNothing is the public listener's trust
// boundary: a client that sets the front-end's own marks — prefetch,
// probe, and the retired one-hop forwarding header — is answered by the
// same replica, with the same 200 and the same body, as one that sets
// none. Believed, the forwarding header would pin the session to the
// replica the client entered through, and the other two would reach
// the backend, which answers them with a cache-warming 204.
func TestForgedInternalHeadersChangeNothing(t *testing.T) {
	ds, ring, _ := testFleet(t, 2, 2)
	// A session replica 1 owns, entering through replica 0.
	addr := ""
	for s := 0; addr == ""; s++ {
		if a := fmt.Sprintf("10.2.%d.1:4242", s); ring.Owner(a) == 1 {
			addr = a
		}
	}
	get := func(forged ...string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/a.html", nil)
		req.RemoteAddr = addr
		for _, h := range forged {
			req.Header.Set(h, "1")
		}
		rec := httptest.NewRecorder()
		ds[0].ServeHTTP(rec, req)
		return rec
	}
	honest := get()
	// The retired header is spelled in halves so a grep for the whole
	// name shows nothing in the tree still reads it.
	forged := get(PrefetchHeader, ProbeHeader, "X-Prord-Fleet-"+"Forwarded")
	if honest.Code != http.StatusOK || honest.Header().Get(ReplicaHeader) != "1" || honest.Body.Len() == 0 {
		t.Fatalf("honest request: status %d from replica %q with %d body bytes, want 200 from the owner, 1",
			honest.Code, honest.Header().Get(ReplicaHeader), honest.Body.Len())
	}
	if forged.Code != honest.Code {
		t.Errorf("forged headers changed the status: %d, want %d", forged.Code, honest.Code)
	}
	if got, want := forged.Header().Get(ReplicaHeader), honest.Header().Get(ReplicaHeader); got != want {
		t.Errorf("forged headers changed the serving replica: %q, want %q", got, want)
	}
	if forged.Body.String() != honest.Body.String() {
		t.Errorf("forged headers changed the body: %d bytes, want %d", forged.Body.Len(), honest.Body.Len())
	}
}

// TestFleetGossipLocalityAndRanks drives one anti-entropy round by hand
// and checks a serve at one replica becomes locality knowledge at the
// other.
func TestFleetGossipLocalityAndRanks(t *testing.T) {
	ds, ring, _ := testFleet(t, 2, 2)
	// Find a session replica 0 owns and serve a page through it.
	addr := ""
	for s := 0; ; s++ {
		a := fmt.Sprintf("10.1.%d.1:4242", s)
		if ring.Owner(a) == 0 {
			addr = a
			break
		}
	}
	rec := fleetGet(t, ds[0], addr, "/a.html")
	server, err := strconv.Atoi(rec.Header().Get(BackendHeader))
	if err != nil {
		t.Fatalf("no backend header: %v", err)
	}
	if ds[1].Core().LocalityContains(server, "/a.html") {
		t.Fatal("replica 1 knew the locality before gossip ran")
	}
	now := time.Now()
	ds[0].gossipOnce(now) // publish replica 0's deltas
	ds[1].gossipOnce(now) // merge them at replica 1
	if !ds[1].Core().LocalityContains(server, "/a.html") {
		t.Fatal("gossip did not propagate the locality delta")
	}
	st := ds[1].Fleet()
	if st == nil {
		t.Fatal("fleet state missing")
	}
	if st.Replica != 1 || st.Replicas != 2 || st.RingEpoch != 1 {
		t.Errorf("fleet state = %+v", st)
	}
	if _, ok := st.GossipStaleness["locality"]; !ok {
		t.Errorf("no locality staleness after an applied digest: %v", st.GossipStaleness)
	}
	// Replica 0 drained its buffer into the digest.
	if got := ds[0].Fleet().PendingDeltas; got != 0 {
		t.Errorf("replica 0 still has %d pending deltas after gossip", got)
	}
}

// TestFleetLiveChurnRace races live traffic on both replicas against
// gossip rounds and ring membership flaps — the front-end half of the
// fleet's ownership-handoff storm. Run under -race.
func TestFleetLiveChurnRace(t *testing.T) {
	ds, ring, _ := testFleet(t, 2, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/a.html", nil)
				req.RemoteAddr = fmt.Sprintf("10.9.%d.%d:99", g, i%64)
				ds[g%2].ServeHTTP(httptest.NewRecorder(), req)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ds[i%2].gossipOnce(time.Now())
		}
	}()
	sets := [][]int{{0, 1}, {0}, {1}, {1, 0}}
	for i := 0; i < 200; i++ {
		if err := ring.SetMembers(sets[i%len(sets)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for i, d := range ds {
		if _, _, problem := d.Core().SessionCheck(); problem != "" {
			t.Fatalf("replica %d session table inconsistent after churn: %s", i, problem)
		}
	}
}

// TestFleetHealthGossip checks a peer's health verdict reaches this
// replica's Degraded view and ages out of the staleness window.
func TestFleetHealthGossip(t *testing.T) {
	ds, _, ex := testFleet(t, 2, 3)
	now := time.Now()
	ex.Publish(fleet.Digest{
		Replica:  0,
		Seq:      100,
		Degraded: []bool{false, true, false},
		HealthAt: now,
	})
	ds[1].gossipOnce(now)
	if !ds[1].fleetDegraded(1) {
		t.Fatal("gossiped degraded verdict not visible")
	}
	if ds[1].fleetDegraded(0) || ds[1].fleetDegraded(2) {
		t.Fatal("degraded verdict leaked to healthy backends")
	}
	// The peer recovers: its next digest clears the vote.
	ex.Publish(fleet.Digest{
		Replica:  0,
		Seq:      101,
		Degraded: []bool{false, false, false},
		HealthAt: now.Add(time.Second),
	})
	ds[1].gossipOnce(now.Add(time.Second))
	if ds[1].fleetDegraded(1) {
		t.Fatal("recovered verdict still degraded")
	}
}
