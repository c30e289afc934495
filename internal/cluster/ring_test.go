package cluster

import (
	"fmt"
	"testing"
)

func TestRingSingleMember(t *testing.T) {
	r := newRing([]int{3})
	for i := 0; i < 100; i++ {
		if got := r.owner(fmt.Sprintf("session-%d", i)); got != 3 {
			t.Fatalf("k=1 ring: owner = %d, want 3", got)
		}
	}
}

func TestRingDeterministic(t *testing.T) {
	a := newRing([]int{0, 1, 2, 3})
	b := newRing([]int{3, 1, 0, 2, 2}) // order and dups must not matter
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("client-%d", i)
		if a.owner(key) != b.owner(key) {
			t.Fatalf("rings over the same member set disagree on %q: %d vs %d",
				key, a.owner(key), b.owner(key))
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing([]int{0, 1, 2, 3})
	counts := make(map[int]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.owner(fmt.Sprintf("10.0.%d.%d:%d", i%256, i/256, 30000+i))]++
	}
	for rep, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("replica %d owns %.1f%% of keys; vnode spread too skewed (%v)",
				rep, 100*frac, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d replicas own keys: %v", len(counts), counts)
	}
}

// TestRingMinimalDisruption checks the consistent-hashing property the
// handoff bound relies on: removing one member only moves the keys it
// owned; every other key keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	before := newRing([]int{0, 1, 2, 3})
	after := newRing([]int{0, 1, 3})
	moved, kept := 0, 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("client-%d", i)
		was, is := before.owner(key), after.owner(key)
		if was == 2 {
			if is == 2 {
				t.Fatalf("key %q still owned by removed replica 2", key)
			}
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %q moved %d -> %d though its owner stayed in the ring", key, was, is)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: moved=%d kept=%d", moved, kept)
	}
}

// TestRingLayoutPinned pins the owner of 16 fixed session keys at k =
// 2, 3 and 4 to constants, so a change to the key hash, the vnode hash,
// the vnode count or the tie order shows here and not only as a drifted
// simulator digit.
func TestRingLayoutPinned(t *testing.T) {
	keys := [16]string{
		"0", "7", "42", "311", "1000", "4096", "27183", "65535",
		"session-3", "session-15", "client-99", "alice",
		"10.0.0.1:40000", "10.0.3.7:51234", "192.168.1.20:33333", "[::1]:8081",
	}
	want := []struct {
		k      int
		owners [16]int
	}{
		{2, [16]int{1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1}},
		{3, [16]int{1, 2, 0, 0, 2, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1}},
		{4, [16]int{3, 2, 0, 0, 2, 3, 0, 3, 1, 0, 3, 3, 3, 3, 3, 3}},
	}
	for _, w := range want {
		members := make([]int, w.k)
		for i := range members {
			members[i] = i
		}
		r := newRing(members)
		var got [16]int
		for i, key := range keys {
			got[i] = r.owner(key)
		}
		if got != w.owners {
			t.Errorf("k=%d owners = %#v, want %#v", w.k, got, w.owners)
		}
	}
}
