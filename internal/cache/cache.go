// Package cache implements the backend-server memory caches used by the
// cluster model: byte-capacity LRU, GDSF (Greedy-Dual-Size-Frequency,
// Cherkasova [30]) and a partitioned store with a pinned region for
// prefetched and replicated pages (Table 1's "pinned memory").
package cache

import "container/heap"

// Item is a cached object: a web file identified by its URL path.
type Item struct {
	Key  string
	Size int64
}

// Cache is a byte-capacity object cache. Implementations are not safe for
// concurrent use; the simulator is single-threaded and the HTTP front-end
// wraps caches in its own locking.
type Cache interface {
	// Contains reports presence without affecting replacement state.
	Contains(key string) bool
	// Touch registers a hit on key, updating replacement state, and
	// reports whether the key was present.
	Touch(key string) bool
	// Insert adds the object, evicting as needed. It returns the evicted
	// items and whether the object now resides in the cache (false when
	// it is larger than the total capacity). Re-inserting an existing key
	// updates its size and hit state. The evicted slice may be a buffer
	// the cache reuses: it is valid until the cache's next insertion.
	Insert(key string, size int64) (evicted []Item, ok bool)
	// Remove drops the object if present.
	Remove(key string) bool
	// Bytes is the total size of the cached objects.
	Bytes() int64
	// Capacity is the configured byte capacity.
	Capacity() int64
	// Len is the number of cached objects.
	Len() int
}

// Store is the backend-memory interface the cluster model consumes: a
// demand cache plus a pinned region for prefetched and replicated pages.
type Store interface {
	Cache
	// InsertPinned places an object in the pinned region; its evicted
	// slice is valid as long as Insert's.
	InsertPinned(key string, size int64) (evicted []Item, ok bool)
	// RemovePinned removes key only if it is pinned.
	RemovePinned(key string) bool
	// IsPinned reports whether key is resident and pinned.
	IsPinned(key string) bool
}

// --- LRU ---

// LRU is a least-recently-used cache with byte capacity: a Pinning
// cache that never pins, so its demand list is the whole LRU order.
type LRU struct{ p Pinning }

// NewLRU returns an LRU cache. It panics if capacity is negative.
func NewLRU(capacity int64) *LRU { return &LRU{p: *NewPinning(capacity, 0)} }

// Contains implements Cache.
func (c *LRU) Contains(key string) bool { return c.p.Contains(key) }

// Touch implements Cache.
func (c *LRU) Touch(key string) bool { return c.p.Touch(key) }

// Insert implements Cache. An object larger than the capacity is
// rejected, and an earlier entry under its key stays as it was.
func (c *LRU) Insert(key string, size int64) (evicted []Item, ok bool) {
	if size > c.p.capacity {
		return nil, false
	}
	return c.p.Insert(key, size)
}

// Remove implements Cache.
func (c *LRU) Remove(key string) bool { return c.p.Remove(key) }

// Bytes implements Cache.
func (c *LRU) Bytes() int64 { return c.p.bytes }

// Capacity implements Cache.
func (c *LRU) Capacity() int64 { return c.p.capacity }

// Len implements Cache.
func (c *LRU) Len() int { return c.p.Len() }

var _ Cache = (*LRU)(nil)

// --- GDSF ---

// gdsfEntry is one object in a GDSF cache.
type gdsfEntry struct {
	key     string
	size    int64
	freq    float64 // past access count
	pri     float64 // cached priority key
	heapIdx int
}

type gdsfHeap []*gdsfEntry

func (h gdsfHeap) Len() int           { return len(h) }
func (h gdsfHeap) Less(i, j int) bool { return h[i].pri < h[j].pri }
func (h gdsfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *gdsfHeap) Push(x any)        { e := x.(*gdsfEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *gdsfHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// GDSF implements Greedy-Dual-Size-Frequency replacement:
// priority = clock + frequency / size.
// Objects with the smallest priority are evicted first, and the clock is
// advanced to each eviction victim's priority, aging resident objects.
type GDSF struct {
	capacity int64
	bytes    int64
	clock    float64
	items    map[string]*gdsfEntry
	h        gdsfHeap
}

// NewGDSF returns a GDSF cache.
func NewGDSF(capacity int64) *GDSF {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &GDSF{capacity: capacity, items: make(map[string]*gdsfEntry)}
}

func (c *GDSF) priority(e *gdsfEntry) float64 {
	size := e.size
	if size <= 0 {
		size = 1
	}
	return c.clock + e.freq/float64(size)
}

func (c *GDSF) update(e *gdsfEntry) {
	e.pri = c.priority(e)
	heap.Fix(&c.h, e.heapIdx)
}

// Contains implements Cache.
func (c *GDSF) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Touch implements Cache.
func (c *GDSF) Touch(key string) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	e.freq++
	c.update(e)
	return true
}

// Insert implements Cache.
func (c *GDSF) Insert(key string, size int64) (evicted []Item, ok bool) {
	if size < 0 {
		size = 0
	}
	if size > c.capacity {
		return nil, false
	}
	if e, exists := c.items[key]; exists {
		c.bytes += size - e.size
		e.size = size
		e.freq++
		c.update(e)
	} else {
		e := &gdsfEntry{key: key, size: size, freq: 1}
		e.pri = c.priority(e)
		heap.Push(&c.h, e)
		c.items[key] = e
		c.bytes += size
	}
	for c.bytes > c.capacity {
		victim := c.h[0]
		if victim.key == key && c.h.Len() > 1 {
			// Evicting the just-inserted key would livelock the loop;
			// GDSF handles this by refusing admission only when the new
			// object is the lowest priority AND the cache has no room.
			// Here we evict the next-lowest instead to make progress.
			second := c.secondLowest()
			if second != nil && c.bytes-second.size <= c.capacity {
				victim = second
			}
		}
		heap.Remove(&c.h, victim.heapIdx)
		delete(c.items, victim.key)
		c.bytes -= victim.size
		c.clock = victim.pri
		if victim.key == key {
			return evicted, false
		}
		evicted = append(evicted, Item{Key: victim.key, Size: victim.size})
	}
	return evicted, true
}

// secondLowest returns the entry with the second-smallest priority, or nil.
func (c *GDSF) secondLowest() *gdsfEntry {
	if c.h.Len() < 2 {
		return nil
	}
	best := c.h[1]
	if c.h.Len() >= 3 && c.h[2].pri < best.pri {
		best = c.h[2]
	}
	return best
}

// Remove implements Cache.
func (c *GDSF) Remove(key string) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	heap.Remove(&c.h, e.heapIdx)
	delete(c.items, key)
	c.bytes -= e.size
	return true
}

// Bytes implements Cache.
func (c *GDSF) Bytes() int64 { return c.bytes }

// Capacity implements Cache.
func (c *GDSF) Capacity() int64 { return c.capacity }

// Len implements Cache.
func (c *GDSF) Len() int { return len(c.items) }

var _ Cache = (*GDSF)(nil)

// --- Partitioned (pinned memory) ---

// Partitioned combines a demand cache with a pinned partition used for
// prefetched and replicated pages, mirroring Table 1's separate "pinned
// memory" pool. Demand insertions go to the main partition; InsertPinned
// places objects in the pinned partition where normal demand traffic
// cannot evict them (only other pinned insertions can).
type Partitioned struct {
	main   Cache
	pinned Cache
}

// NewPartitioned builds a partitioned store from the two caches. Both must
// be non-nil.
func NewPartitioned(main, pinned Cache) *Partitioned {
	if main == nil || pinned == nil {
		panic("cache: nil partition")
	}
	return &Partitioned{main: main, pinned: pinned}
}

// Contains reports presence in either partition.
func (p *Partitioned) Contains(key string) bool {
	return p.main.Contains(key) || p.pinned.Contains(key)
}

// Touch registers a hit in whichever partition holds the key.
func (p *Partitioned) Touch(key string) bool {
	if p.main.Touch(key) {
		return true
	}
	return p.pinned.Touch(key)
}

// Insert adds a demand-fetched object to the main partition. If the key is
// pinned it stays pinned and the insert only refreshes that entry.
func (p *Partitioned) Insert(key string, size int64) (evicted []Item, ok bool) {
	if p.pinned.Contains(key) {
		p.pinned.Touch(key)
		return nil, true
	}
	return p.main.Insert(key, size)
}

// InsertPinned adds a prefetched or replicated object to the pinned
// partition, removing any main-partition copy.
func (p *Partitioned) InsertPinned(key string, size int64) (evicted []Item, ok bool) {
	evicted, ok = p.pinned.Insert(key, size)
	if ok {
		p.main.Remove(key)
	}
	return evicted, ok
}

// RemovePinned removes key only if it lives in the pinned partition.
func (p *Partitioned) RemovePinned(key string) bool {
	return p.pinned.Remove(key)
}

// IsPinned reports whether key is resident in the pinned partition.
func (p *Partitioned) IsPinned(key string) bool {
	return p.pinned.Contains(key)
}

// Remove drops the key from both partitions.
func (p *Partitioned) Remove(key string) bool {
	a := p.main.Remove(key)
	b := p.pinned.Remove(key)
	return a || b
}

// Bytes is the combined resident size.
func (p *Partitioned) Bytes() int64 { return p.main.Bytes() + p.pinned.Bytes() }

// Capacity is the combined capacity.
func (p *Partitioned) Capacity() int64 { return p.main.Capacity() + p.pinned.Capacity() }

// Len is the combined object count.
func (p *Partitioned) Len() int { return p.main.Len() + p.pinned.Len() }

var (
	_ Cache = (*Partitioned)(nil)
	_ Store = (*Partitioned)(nil)
)
