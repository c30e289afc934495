package dispatch_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/fleet"
	"prord/internal/policy"
)

// fleetCore builds an optimistic-mode core on a ring, as a live fleet
// replica would run it.
func fleetCore(t *testing.T, ring *fleet.Ring, replica int) *dispatch.Core {
	t.Helper()
	c, err := dispatch.New(dispatch.Config{
		Backends:  4,
		Policy:    policy.NewLARD(policy.Thresholds{}),
		Ring:      ring,
		ReplicaID: replica,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOwnerWithoutRing(t *testing.T) {
	c, err := dispatch.New(dispatch.Config{Backends: 2, Policy: policy.NewWRR(2)})
	if err != nil {
		t.Fatal(err)
	}
	if owner, owned := c.Owner("any"); !owned || owner != 0 {
		t.Fatalf("ringless core: Owner = (%d,%t), want (0,true)", owner, owned)
	}
	if c.RingEpoch() != 0 {
		t.Fatalf("ringless core: RingEpoch = %d, want 0", c.RingEpoch())
	}
}

func TestNewRejectsNonMemberReplica(t *testing.T) {
	ring, _ := fleet.NewRing([]int{0, 1})
	_, err := dispatch.New(dispatch.Config{
		Backends:  2,
		Policy:    policy.NewWRR(2),
		Ring:      ring,
		ReplicaID: 7,
	})
	if err == nil {
		t.Fatal("New accepted a ReplicaID outside the ring membership")
	}
}

// TestOwnershipPartition checks that two replicas on one ring partition
// the key space: every key is owned by exactly one of them.
func TestOwnershipPartition(t *testing.T) {
	ring, _ := fleet.NewRing([]int{0, 1})
	c0 := fleetCore(t, ring, 0)
	c1 := fleetCore(t, ring, 1)
	owned0, owned1 := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("client-%d", i)
		o0, own0 := c0.Owner(key)
		o1, own1 := c1.Owner(key)
		if o0 != o1 {
			t.Fatalf("replicas disagree on %q's owner: %d vs %d", key, o0, o1)
		}
		if own0 == own1 {
			t.Fatalf("key %q owned by both or neither replica (owner %d)", key, o0)
		}
		if own0 {
			owned0++
		} else {
			owned1++
		}
	}
	if owned0 == 0 || owned1 == 0 {
		t.Fatalf("degenerate partition: %d/%d", owned0, owned1)
	}
}

// TestNoteFleetForwardReleasesStalePin checks the rebind path: after a
// membership change moves a session away, the old owner's next foreign
// touch drops the stale binding and counts an ownership rebind.
func TestNoteFleetForwardReleasesStalePin(t *testing.T) {
	ring, _ := fleet.NewRing([]int{0})
	c := fleetCore(t, ring, 0)
	now := time.Unix(0, 0)

	// Bind a batch of sessions while this replica owns everything.
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("client-%d", i)
		out := c.Route(keys[i], "/g0/p0.html", 1024, now)
		if !out.OK {
			t.Fatalf("route failed for %s", keys[i])
		}
		c.Done(keys[i], out.Server, "/g0/p0.html", false, false)
	}

	// Grow the fleet; some keys now belong to replica 1.
	if err := ring.SetMembers([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	foreign, rebinds := 0, 0
	for _, key := range keys {
		if _, owned := c.Owner(key); owned {
			continue
		}
		foreign++
		if c.NoteFleetForward(key) {
			rebinds++
		}
	}
	if foreign == 0 {
		t.Fatal("membership change moved no keys; ring too coarse for the test")
	}
	if rebinds != foreign {
		t.Fatalf("rebinds = %d, want one per foreign idle bound session (%d)", rebinds, foreign)
	}
	st := c.Stats()
	if st.FleetForwards != int64(foreign) || st.OwnershipRebinds != int64(rebinds) {
		t.Fatalf("stats FleetForwards=%d OwnershipRebinds=%d, want %d/%d",
			st.FleetForwards, st.OwnershipRebinds, foreign, rebinds)
	}
	// The released sessions are gone; the owned ones remain.
	if got, want := c.SessionCount(), len(keys)-foreign; got != want {
		t.Fatalf("SessionCount = %d, want %d after releasing %d foreign sessions",
			got, want, foreign)
	}
	if got := c.OwnedSessions(); got != c.SessionCount() {
		t.Fatalf("OwnedSessions = %d, want every remaining session (%d)", got, c.SessionCount())
	}
	// A second foreign touch finds nothing to release.
	for _, key := range keys {
		if _, owned := c.Owner(key); !owned {
			if c.NoteFleetForward(key) {
				t.Fatalf("NoteFleetForward(%s) rebound twice", key)
			}
		}
	}
}

// TestNoteFleetForwardKeepsBusySessions checks that a session with a
// request in flight survives a foreign touch: state is only released
// once idle.
func TestNoteFleetForwardKeepsBusySessions(t *testing.T) {
	ring, _ := fleet.NewRing([]int{0})
	c := fleetCore(t, ring, 0)
	now := time.Unix(0, 0)
	out := c.Route("client-busy", "/g0/p0.html", 1024, now)
	if !out.OK {
		t.Fatal("route failed")
	}
	// In flight: the foreign touch must not release it.
	if c.NoteFleetForward("client-busy") {
		t.Fatal("NoteFleetForward released a busy session")
	}
	if c.SessionCount() != 1 {
		t.Fatal("busy session vanished")
	}
	c.Done("client-busy", out.Server, "/g0/p0.html", false, false)
	if !c.NoteFleetForward("client-busy") {
		t.Fatal("idle bound session not released on foreign touch")
	}
}

// TestNoteRemoteLocality checks the gossip fold: a peer's locality
// delta becomes visible to this replica's policies.
func TestNoteRemoteLocality(t *testing.T) {
	c, err := dispatch.New(dispatch.Config{Backends: 4, Policy: policy.NewLARD(policy.Thresholds{})})
	if err != nil {
		t.Fatal(err)
	}
	c.NoteRemoteLocality(2, "/g0/p9.html")
	if !c.LocalityContains(2, "/g0/p9.html") {
		t.Fatal("gossiped locality delta not visible")
	}
	// Dynamic paths and out-of-range backends are ignored.
	c.NoteRemoteLocality(1, "/search.cgi")
	if c.LocalityContains(1, "/search.cgi") {
		t.Fatal("dynamic path entered the locality map via gossip")
	}
	c.NoteRemoteLocality(99, "/g0/p9.html")
	c.NoteRemoteLocality(-1, "/g0/p9.html")
}

// TestFleetOwnershipStormRace is the fleet's handoff storm (`make race`):
// Route/Done/Rebook traffic races ring membership changes, foreign
// touches (NoteFleetForward) and gossip folds (NoteRemoteLocality),
// and the session table must come out consistent.
func TestFleetOwnershipStormRace(t *testing.T) {
	ring, err := fleet.NewRing([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dispatch.New(dispatch.Config{
		Backends:    4,
		Policy:      policy.NewLARD(policy.Thresholds{}),
		Ring:        ring,
		ReplicaID:   0,
		MaxSessions: 256,
		Shards:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: route-done cycles with occasional rebooks, owner checks
	// and foreign-touch releases — the front-end's fleet loop.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Unix(int64(g), 0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("client-%d", (g*131+i)%512)
				path := fmt.Sprintf("/g%d/p%d.html", i%4, i%16)
				if _, owned := c.Owner(key); !owned {
					c.NoteFleetForward(key)
					continue
				}
				out := c.Route(key, path, 2048, now)
				if !out.OK {
					continue
				}
				if i%17 == 0 {
					if srv, ok := c.Rebook(key, path, out.Server, now); ok {
						c.Done(key, srv, path, false, true)
					}
				}
				c.Done(key, out.Server, path, i%13 == 0, false)
				now = now.Add(time.Millisecond)
			}
		}(g)
	}

	// Gossip folds racing the traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.NoteRemoteLocality(i%4, fmt.Sprintf("/g%d/p%d.html", i%4, i%16))
			c.OwnedSessions()
		}
	}()

	// Ring churn: membership flaps while everything above runs. The
	// churn alone can finish before the traffic goroutines are even
	// scheduled, so keep flapping until routing has made progress —
	// the assertion below must race real traffic, not an empty core.
	sets := [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {0, 1, 2, 3}, {0}}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 300 || (c.Stats().Requests == 0 && time.Now().Before(deadline)); i++ {
		if err := ring.SetMembers(sets[i%len(sets)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if _, _, problem := c.SessionCheck(); problem != "" {
		t.Fatalf("session table inconsistent after ownership storm: %s", problem)
	}
	st := c.Stats()
	if st.Requests == 0 {
		t.Fatal("storm routed nothing")
	}
}
