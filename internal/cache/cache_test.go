package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU(100)
	if ev, ok := c.Insert("a", 40); !ok || len(ev) != 0 {
		t.Fatalf("insert a: ev=%v ok=%v", ev, ok)
	}
	if ev, ok := c.Insert("b", 40); !ok || len(ev) != 0 {
		t.Fatalf("insert b: ev=%v ok=%v", ev, ok)
	}
	if !c.Contains("a") || !c.Contains("b") {
		t.Fatal("a and b should be resident")
	}
	ev, ok := c.Insert("c", 40) // must evict a (LRU)
	if !ok || len(ev) != 1 || ev[0].Key != "a" {
		t.Fatalf("insert c evicted %v, want [a]", ev)
	}
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("Bytes=%d Len=%d, want 80, 2", c.Bytes(), c.Len())
	}
}

func TestLRUTouchChangesVictim(t *testing.T) {
	c := NewLRU(100)
	c.Insert("a", 40)
	c.Insert("b", 40)
	if !c.Touch("a") {
		t.Fatal("Touch(a) should succeed")
	}
	ev, _ := c.Insert("c", 40)
	if len(ev) != 1 || ev[0].Key != "b" {
		t.Fatalf("after touching a, victim should be b, got %v", ev)
	}
}

func TestLRUContainsDoesNotPromote(t *testing.T) {
	c := NewLRU(100)
	c.Insert("a", 40)
	c.Insert("b", 40)
	c.Contains("a") // must NOT promote
	ev, _ := c.Insert("c", 40)
	if len(ev) != 1 || ev[0].Key != "a" {
		t.Fatalf("Contains must not promote; victim %v, want a", ev)
	}
}

func TestLRUOversizedRejected(t *testing.T) {
	c := NewLRU(100)
	if _, ok := c.Insert("big", 200); ok {
		t.Fatal("object larger than capacity must be rejected")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("rejected insert must not change state")
	}
}

func TestLRUReinsertResizes(t *testing.T) {
	c := NewLRU(100)
	c.Insert("a", 40)
	c.Insert("a", 70)
	if c.Bytes() != 70 || c.Len() != 1 {
		t.Fatalf("reinsert: Bytes=%d Len=%d, want 70, 1", c.Bytes(), c.Len())
	}
	// Growing a resident object can trigger evictions of others.
	c.Insert("b", 30)
	ev, ok := c.Insert("a", 90)
	if !ok || len(ev) != 1 || ev[0].Key != "b" {
		t.Fatalf("grow a: ev=%v ok=%v, want evict b", ev, ok)
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU(100)
	c.Insert("a", 10)
	if !c.Remove("a") || c.Remove("a") {
		t.Fatal("Remove should return true once then false")
	}
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("Remove must release space")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := NewLRU(1000)
	c.Insert("a", 1)
	c.Insert("b", 1)
	c.Insert("c", 1)
	c.Touch("a")
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "c" || keys[2] != "b" {
		t.Fatalf("Keys = %v, want [a c b]", keys)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0)
	if _, ok := c.Insert("a", 1); ok {
		t.Fatal("zero-capacity cache admits nothing of positive size")
	}
	if _, ok := c.Insert("empty", 0); !ok {
		t.Fatal("zero-size object fits in zero-capacity cache")
	}
}

// invariantCheck exercises a Cache with a deterministic mixed workload and
// verifies capacity and accounting invariants throughout.
func invariantCheck(t *testing.T, mk func() Cache, ops []byte) {
	t.Helper()
	c := mk()
	live := make(map[string]int64)
	for i, op := range ops {
		key := fmt.Sprintf("k%d", op%23)
		switch op % 3 {
		case 0:
			size := int64(op%17) * 3
			ev, ok := c.Insert(key, size)
			for _, e := range ev {
				if _, known := live[e.Key]; !known {
					t.Fatalf("op %d: evicted unknown key %s", i, e.Key)
				}
				delete(live, e.Key)
			}
			if ok {
				live[key] = size
			} else {
				delete(live, key)
				for _, e := range ev {
					_ = e
				}
			}
		case 1:
			got := c.Touch(key)
			_, want := live[key]
			if got != want {
				t.Fatalf("op %d: Touch(%s) = %v, want %v", i, key, got, want)
			}
		case 2:
			got := c.Remove(key)
			_, want := live[key]
			if got != want {
				t.Fatalf("op %d: Remove(%s) = %v, want %v", i, key, got, want)
			}
			delete(live, key)
		}
		if c.Bytes() > c.Capacity() {
			t.Fatalf("op %d: Bytes %d exceeds Capacity %d", i, c.Bytes(), c.Capacity())
		}
		var wantBytes int64
		for _, s := range live {
			wantBytes += s
		}
		if c.Bytes() != wantBytes {
			t.Fatalf("op %d: Bytes %d != tracked %d", i, c.Bytes(), wantBytes)
		}
		if c.Len() != len(live) {
			t.Fatalf("op %d: Len %d != tracked %d", i, c.Len(), len(live))
		}
		for k := range live {
			if !c.Contains(k) {
				t.Fatalf("op %d: live key %s missing", i, k)
			}
		}
	}
}

func TestLRUInvariantsProperty(t *testing.T) {
	f := func(ops []byte) bool {
		invariantCheck(t, func() Cache { return NewLRU(120) }, ops)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGDSFInvariantsProperty(t *testing.T) {
	f := func(ops []byte) bool {
		invariantCheck(t, func() Cache { return NewGDSF(120) }, ops)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGDSFPrefersSmallAndFrequent(t *testing.T) {
	c := NewGDSF(100)
	c.Insert("small-hot", 10)
	for i := 0; i < 10; i++ {
		c.Touch("small-hot")
	}
	c.Insert("big-cold", 80)
	// Force pressure: the big cold object should be evicted before the
	// small hot one.
	ev, ok := c.Insert("newcomer", 50)
	if !ok {
		t.Fatal("newcomer should be admitted")
	}
	for _, e := range ev {
		if e.Key == "small-hot" {
			t.Fatal("GDSF evicted the small hot object before the big cold one")
		}
	}
	if !c.Contains("small-hot") {
		t.Fatal("small-hot should survive")
	}
}

func TestGDSFClockAges(t *testing.T) {
	c := NewGDSF(100)
	c.Insert("old-hot", 10)
	for i := 0; i < 5; i++ {
		c.Touch("old-hot")
	}
	// Cause many evictions to advance the clock well past old-hot's
	// frozen priority; newly inserted objects should then beat it.
	for i := 0; i < 200; i++ {
		c.Insert(fmt.Sprintf("filler%d", i), 45)
	}
	if c.Bytes() > c.Capacity() {
		t.Fatal("capacity invariant violated")
	}
	// The clock-aging property: eventually old-hot gets evicted even
	// though it was frequent long ago.
	if c.Contains("old-hot") {
		t.Fatal("clock aging should eventually evict stale frequent objects")
	}
}

func TestGDSFOversized(t *testing.T) {
	c := NewGDSF(100)
	if _, ok := c.Insert("big", 101); ok {
		t.Fatal("oversized object must be rejected")
	}
}

func TestPartitionedBasics(t *testing.T) {
	p := NewPartitioned(NewLRU(100), NewLRU(50))
	p.Insert("demand", 30)
	p.InsertPinned("pin", 30)
	if !p.Contains("demand") || !p.Contains("pin") {
		t.Fatal("both partitions should report Contains")
	}
	if !p.Touch("pin") || !p.Touch("demand") {
		t.Fatal("Touch should find keys in either partition")
	}
	if p.Bytes() != 60 || p.Len() != 2 || p.Capacity() != 150 {
		t.Fatalf("Bytes=%d Len=%d Cap=%d", p.Bytes(), p.Len(), p.Capacity())
	}
}

func TestPartitionedPinnedSurvivesDemandPressure(t *testing.T) {
	p := NewPartitioned(NewLRU(100), NewLRU(50))
	p.InsertPinned("pin", 40)
	for i := 0; i < 50; i++ {
		p.Insert(fmt.Sprintf("d%d", i), 30)
	}
	if !p.Contains("pin") {
		t.Fatal("pinned object must survive demand churn")
	}
	if p.Main().Bytes() > p.Main().Capacity() {
		t.Fatal("main partition over capacity")
	}
}

func TestPartitionedPinMovesFromMain(t *testing.T) {
	p := NewPartitioned(NewLRU(100), NewLRU(50))
	p.Insert("x", 30)
	p.InsertPinned("x", 30)
	if p.Main().Contains("x") {
		t.Fatal("pinning must remove the main-partition copy")
	}
	if !p.Pinned().Contains("x") {
		t.Fatal("pinned copy missing")
	}
	if p.Bytes() != 30 {
		t.Fatalf("Bytes = %d, want 30 (no double count)", p.Bytes())
	}
}

func TestPartitionedInsertOfPinnedKeyStaysPinned(t *testing.T) {
	p := NewPartitioned(NewLRU(100), NewLRU(50))
	p.InsertPinned("x", 30)
	ev, ok := p.Insert("x", 30)
	if !ok || len(ev) != 0 {
		t.Fatalf("demand insert of pinned key: ev=%v ok=%v", ev, ok)
	}
	if p.Main().Contains("x") {
		t.Fatal("demand insert of a pinned key must not duplicate into main")
	}
}

func TestPartitionedRemove(t *testing.T) {
	p := NewPartitioned(NewLRU(100), NewLRU(50))
	p.Insert("a", 10)
	p.InsertPinned("b", 10)
	if !p.Remove("a") || !p.Remove("b") || p.Remove("c") {
		t.Fatal("Remove results wrong")
	}
	if p.Bytes() != 0 || p.Len() != 0 {
		t.Fatal("Remove must clear both partitions")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"lru":  func() { NewLRU(-1) },
		"gdsf": func() { NewGDSF(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative capacity should panic", name)
				}
			}()
			fn()
		}()
	}
}
