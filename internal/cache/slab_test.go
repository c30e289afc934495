package cache

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"prord/internal/randutil"
)

// order lists a slab list's keys from most to least recent.
func (s *slab) order(l int32) []string {
	var keys []string
	for i := s.ents[l].next; i != l; i = s.ents[i].next {
		keys = append(keys, s.ents[i].key)
	}
	return keys
}

// listOrder lists a container/list of reference entries front to back.
func listOrder(ll *list.List, key func(any) string) []string {
	var keys []string
	for el := ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, key(el.Value))
	}
	return keys
}

// cacheOp is one step of the differential tests' seeded sequences.
type cacheOp struct {
	kind int // 0 Insert, 1 InsertPinned, 2 Touch, 3 Remove, 4 RemovePinned
	key  string
	size int64
}

func (o cacheOp) String() string {
	return fmt.Sprintf("%s(%s, %d)", [...]string{"Insert", "InsertPinned", "Touch", "Remove", "RemovePinned"}[o.kind], o.key, o.size)
}

// randomOps draws n operations over a small key universe, with sizes
// that make every eviction path fire, oversized requests included.
func randomOps(seed int64, n, kinds int, maxSize int64) []cacheOp {
	rng := randutil.New(seed)
	ops := make([]cacheOp, n)
	for i := range ops {
		ops[i] = cacheOp{
			kind: rng.Intn(kinds),
			key:  fmt.Sprintf("k%d", rng.Intn(24)),
			size: int64(rng.Intn(int(maxSize))),
		}
	}
	return ops
}

// TestLRUMatchesListLRU drives seeded random sequences through the
// slab LRU and the container/list reference: every call's evictions,
// in order, its results, the accounting and the whole recency order
// must agree after every operation.
func TestLRUMatchesListLRU(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, want := NewLRU(200), newListLRU(200)
		for i, op := range randomOps(seed, 2000, 4, 90) {
			var g, w bool
			switch op.kind {
			case 0, 1:
				var ge, we []Item
				ge, g = got.Insert(op.key, op.size)
				we, w = want.Insert(op.key, op.size)
				if !slices.Equal(ge, we) {
					t.Fatalf("seed %d op %d %v: evicted %v, reference %v", seed, i, op, ge, we)
				}
			case 2:
				g, w = got.Touch(op.key), want.Touch(op.key)
			case 3:
				g, w = got.Remove(op.key), want.Remove(op.key)
			}
			if g != w {
				t.Fatalf("seed %d op %d %v: %v, reference %v", seed, i, op, g, w)
			}
			if got.Bytes() != want.Bytes() || got.Len() != want.Len() || !slices.Equal(got.Keys(), want.Keys()) {
				t.Fatalf("seed %d op %d %v: bytes %d len %d keys %v, reference %d %d %v",
					seed, i, op, got.Bytes(), got.Len(), got.Keys(), want.Bytes(), want.Len(), want.Keys())
			}
		}
	}
}

// TestPinningMatchesListPinning is the differential test of the
// pinning cache: both orders, demand and pinned, every eviction in
// order and the accounting must match the container/list reference
// after every operation.
func TestPinningMatchesListPinning(t *testing.T) {
	demandKey := func(v any) string { return v.(*listPinEntry).key }
	for seed := int64(1); seed <= 20; seed++ {
		got, want := NewPinning(300, 120), newListPinning(300, 120)
		for i, op := range randomOps(seed, 2000, 5, 130) {
			var g, w bool
			switch op.kind {
			case 0, 1:
				var ge, we []Item
				if op.kind == 0 {
					ge, g = got.Insert(op.key, op.size)
					we, w = want.Insert(op.key, op.size)
				} else {
					ge, g = got.InsertPinned(op.key, op.size)
					we, w = want.InsertPinned(op.key, op.size)
				}
				if !slices.Equal(ge, we) {
					t.Fatalf("seed %d op %d %v: evicted %v, reference %v", seed, i, op, ge, we)
				}
			case 2:
				g, w = got.Touch(op.key), want.Touch(op.key)
			case 3:
				g, w = got.Remove(op.key), want.Remove(op.key)
			case 4:
				g, w = got.RemovePinned(op.key), want.RemovePinned(op.key)
			}
			if g != w {
				t.Fatalf("seed %d op %d %v: %v, reference %v", seed, i, op, g, w)
			}
			if got.Bytes() != want.Bytes() || got.PinnedBytes() != want.PinnedBytes() || got.Len() != want.Len() {
				t.Fatalf("seed %d op %d %v: bytes %d pinned %d len %d, reference %d %d %d", seed, i, op,
					got.Bytes(), got.PinnedBytes(), got.Len(), want.Bytes(), want.PinnedBytes(), want.Len())
			}
			if got.IsPinned(op.key) != want.IsPinned(op.key) {
				t.Fatalf("seed %d op %d %v: IsPinned %v, reference %v", seed, i, op, got.IsPinned(op.key), want.IsPinned(op.key))
			}
			if !slices.Equal(got.s.order(demand), listOrder(want.demand, demandKey)) ||
				!slices.Equal(got.s.order(pinned), listOrder(want.pinned, demandKey)) {
				t.Fatalf("seed %d op %d %v: orders %v/%v, reference %v/%v", seed, i, op,
					got.s.order(demand), got.s.order(pinned), listOrder(want.demand, demandKey), listOrder(want.pinned, demandKey))
			}
		}
	}
}

// allocKeys returns n distinct keys, built before any counting.
func allocKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/file/%d.html", i)
	}
	return keys
}

// settleRuntime collects the garbage and returns every free page to
// the operating system before an allocation count. AllocsPerRun reads
// the process-wide malloc count, and the runtime's background scavenger,
// woken by a collection to return pages, re-arms its sleep timer between
// passes; now and then that grows a timer heap, one allocation that is
// not the cache's (a MemProfileRate = 1 profile of a failing run showed
// runtime.(*timers).addHeap under runtime.bgscavenge). With nothing
// left to return, the scavenger parks instead, through the measured run.
func settleRuntime() { debug.FreeOSMemory() }

// TestLRUAllocs pins a full LRU at zero allocations: entries come off
// the slab's free list and evictions go into the cache's reused buffer.
func TestLRUAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := allocKeys(512)
	c := NewLRU(100 * 64)
	for _, k := range keys {
		c.Insert(k, 100)
	}
	// One run of many operations: AllocsPerRun truncates its mean, so
	// an amortized growth spread over many runs would read 0.
	settleRuntime()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20000; i++ {
			k := keys[(i*7)%len(keys)]
			if !c.Touch(k) {
				c.Insert(k, int64(64+i%3*40))
			}
			if i%5 == 0 {
				c.Remove(keys[(i*3)%len(keys)])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("full LRU allocated %.0f objects over 20,000 operations, want 0", allocs)
	}
}

// TestPinningAllocs pins a full pinning cache at zero allocations,
// demand and pinned insertions and both removals alike.
func TestPinningAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := allocKeys(512)
	c := NewPinning(100*64, 30*64)
	for j, k := range keys {
		if j%4 == 0 {
			c.InsertPinned(k, 100)
		} else {
			c.Insert(k, 100)
		}
	}
	settleRuntime()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20000; i++ {
			k := keys[(i*7)%len(keys)]
			switch {
			case c.Touch(k):
			case i%4 == 0:
				c.InsertPinned(k, int64(64+i%3*40))
			default:
				c.Insert(k, int64(64+i%3*40))
			}
			switch i % 7 {
			case 0:
				c.Remove(keys[(i*3)%len(keys)])
			case 3:
				c.RemovePinned(keys[(i*3)%len(keys)])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("full pinning cache allocated %.0f objects over 20,000 operations, want 0", allocs)
	}
}
