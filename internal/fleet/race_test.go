package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRingChurnRace hammers lock-free Owner lookups while membership
// churns: the `make race` storm for the ring's RCU publish path.
func TestRingChurnRace(t *testing.T) {
	r, err := NewRing([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
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
				key := fmt.Sprintf("client-%d-%d", g, i%512)
				owner, epoch := r.OwnerEpoch(key)
				if owner < 0 || epoch == 0 {
					t.Errorf("invalid lookup: owner=%d epoch=%d", owner, epoch)
					return
				}
			}
		}(g)
	}
	sets := [][]int{{0, 1}, {0, 1, 2, 3}, {1, 2, 3}, {0, 2}, {0, 1, 2, 3, 4, 5}}
	for i := 0; i < 400; i++ {
		if err := r.SetMembers(sets[i%len(sets)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := r.Epoch(); got != 401 {
		t.Fatalf("epoch = %d, want 401 after 400 SetMembers", got)
	}
}

// TestGossipChurnRace runs concurrent publishers, note-ers and mergers
// over one Exchanger: the `make race` gossip-merge churn storm.
// Each merging replica checks the watermark invariant under the race —
// no (replica, Seq) digest is ever applied twice.
func TestGossipChurnRace(t *testing.T) {
	const replicas = 4
	ex := NewExchanger()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publishers: each replica drains its buffer into digests.
	for rep := 0; rep < replicas; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			buf := NewBuffer(0)
			at := t0
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 8; i++ {
					// Paths are unique per (replica, seq, i) so a merger can
					// detect a double-applied digest exactly.
					buf.NoteLocality(i%2, fmt.Sprintf("/r%d/s%d/f%d.html", rep, seq, i))
					buf.NoteRank(fmt.Sprintf("/r%d/f%d.html", rep, i))
				}
				loc, ranks := buf.Drain()
				at = at.Add(time.Millisecond)
				ex.Publish(Digest{
					Replica: rep, Seq: seq,
					Locality: loc, LocalityAt: at,
					Ranks: ranks, RanksAt: at,
					Degraded: []bool{seq%3 == 0, false}, HealthAt: at,
				})
			}
		}(rep)
	}

	// Mergers: each replica merges everyone's digests and checks the
	// apply-once watermark.
	errs := make(chan error, replicas)
	for rep := 0; rep < replicas; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			m := NewMerger(rep, Bounds{Locality: time.Hour, Ranks: time.Hour, Health: time.Hour})
			seen := make(map[string]bool)
			now := t0
			for {
				select {
				case <-stop:
					return
				default:
				}
				now = now.Add(time.Millisecond)
				m.Merge(now, ex.Digests(), Apply{
					// Apply callbacks run on the merging goroutine only, so
					// seen needs no lock; the unique per-(replica,seq) paths
					// make a double-applied digest visible here.
					Locality: func(d LocalityDelta) {
						key := fmt.Sprintf("%d|%s", d.Server, d.Path)
						if seen[key] {
							select {
							case errs <- fmt.Errorf("merger %d applied %s twice", rep, key):
							default:
							}
							return
						}
						seen[key] = true
					},
					Ranks:  func(string) {},
					Health: func(int, []bool, []bool) {},
				})
			}
		}(rep)
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
