package cache

import "container/list"

// The container/list LRU and Pinning caches the slab-backed ones
// replaced, kept as the reference the differential test compares
// against: same orders, same evictions, one heap element per entry.

// listLRU is a least-recently-used cache with byte capacity.
type listLRU struct {
	capacity int64
	bytes    int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
}

type listLRUEntry struct {
	key  string
	size int64
}

// newListLRU returns an listLRU cache. It panics if capacity is negative.
func newListLRU(capacity int64) *listLRU {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &listLRU{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Contains implements Cache.
func (c *listLRU) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Touch implements Cache.
func (c *listLRU) Touch(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.MoveToFront(el)
	return true
}

// Insert implements Cache.
func (c *listLRU) Insert(key string, size int64) (evicted []Item, ok bool) {
	if size < 0 {
		size = 0
	}
	if size > c.capacity {
		return nil, false
	}
	if el, exists := c.items[key]; exists {
		ent := el.Value.(*listLRUEntry)
		c.bytes += size - ent.size
		ent.size = size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&listLRUEntry{key: key, size: size})
		c.items[key] = el
		c.bytes += size
	}
	for c.bytes > c.capacity {
		back := c.ll.Back()
		ent := back.Value.(*listLRUEntry)
		if ent.key == key {
			// The inserted item is the eviction victim; keep it (it fits
			// by the capacity check) and evict from the next-oldest.
			c.ll.MoveToFront(back)
			continue
		}
		c.removeElement(back)
		evicted = append(evicted, Item{Key: ent.key, Size: ent.size})
	}
	return evicted, true
}

// Remove implements Cache.
func (c *listLRU) Remove(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

func (c *listLRU) removeElement(el *list.Element) {
	ent := el.Value.(*listLRUEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.size
}

// Bytes implements Cache.
func (c *listLRU) Bytes() int64 { return c.bytes }

// Capacity implements Cache.
func (c *listLRU) Capacity() int64 { return c.capacity }

// Len implements Cache.
func (c *listLRU) Len() int { return c.ll.Len() }

// Keys returns the cached keys from most to least recently used.
func (c *listLRU) Keys() []string {
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*listLRUEntry).key)
	}
	return keys
}

// listPinning is a shared-capacity cache with a pinned region of *variable*
// size, matching Table 1's "Pinned Memory 72 MB (Variable)": demand and
// pinned objects share one byte budget; pinned bytes are capped by
// maxPinned, and space not used by pinned objects serves demand traffic.
//
// Eviction rules:
//   - Demand insertions evict demand objects (LRU) only; they never evict
//     pinned objects. If the demand object cannot fit in the space left
//     by pinned objects, it is not admitted.
//   - Pinned insertions evict the oldest pinned objects past the pinned
//     cap, then demand LRU objects past the total capacity.
type listPinning struct {
	capacity  int64
	maxPinned int64
	bytes     int64
	pinBytes  int64
	demand    *list.List // front = most recent
	pinned    *list.List // front = most recent
	items     map[string]*list.Element
}

type listPinEntry struct {
	key    string
	size   int64
	pinned bool
}

// newListPinning returns a cache with the given total capacity and pinned cap
// (clamped to capacity). It panics on negative arguments.
func newListPinning(capacity, maxPinned int64) *listPinning {
	if capacity < 0 || maxPinned < 0 {
		panic("cache: negative capacity")
	}
	if maxPinned > capacity {
		maxPinned = capacity
	}
	return &listPinning{
		capacity:  capacity,
		maxPinned: maxPinned,
		demand:    list.New(),
		pinned:    list.New(),
		items:     make(map[string]*list.Element),
	}
}

// Contains implements Cache.
func (c *listPinning) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// IsPinned reports whether key is resident in the pinned region.
func (c *listPinning) IsPinned(key string) bool {
	el, ok := c.items[key]
	return ok && el.Value.(*listPinEntry).pinned
}

// Touch implements Cache.
func (c *listPinning) Touch(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	if el.Value.(*listPinEntry).pinned {
		c.pinned.MoveToFront(el)
	} else {
		c.demand.MoveToFront(el)
	}
	return true
}

// Insert adds a demand object. It never evicts pinned objects; when the
// object cannot fit beside the current pinned bytes it is rejected.
func (c *listPinning) Insert(key string, size int64) (evicted []Item, ok bool) {
	if size < 0 {
		size = 0
	}
	if el, exists := c.items[key]; exists {
		ent := el.Value.(*listPinEntry)
		if ent.pinned {
			c.pinned.MoveToFront(el)
			return nil, true
		}
		if size > c.capacity-c.pinBytes {
			c.removeElement(el)
			return nil, false
		}
		c.bytes += size - ent.size
		ent.size = size
		c.demand.MoveToFront(el)
		return c.evictDemandOverflow(key), true
	}
	if size > c.capacity-c.pinBytes {
		return nil, false
	}
	el := c.demand.PushFront(&listPinEntry{key: key, size: size})
	c.items[key] = el
	c.bytes += size
	return c.evictDemandOverflow(key), true
}

// evictDemandOverflow drops demand LRU victims until total bytes fit.
func (c *listPinning) evictDemandOverflow(keep string) []Item {
	var evicted []Item
	for c.bytes > c.capacity {
		back := c.demand.Back()
		if back == nil {
			break // only pinned objects remain; caller guaranteed fit
		}
		ent := back.Value.(*listPinEntry)
		if ent.key == keep {
			c.demand.MoveToFront(back)
			continue
		}
		c.removeElement(back)
		evicted = append(evicted, Item{Key: ent.key, Size: ent.size})
	}
	return evicted
}

// InsertPinned adds or promotes an object into the pinned region.
func (c *listPinning) InsertPinned(key string, size int64) (evicted []Item, ok bool) {
	if size < 0 {
		size = 0
	}
	if size > c.maxPinned {
		return nil, false
	}
	if el, exists := c.items[key]; exists {
		// Promote or refresh.
		ent := el.Value.(*listPinEntry)
		if ent.pinned {
			c.pinBytes += size - ent.size
			c.bytes += size - ent.size
			ent.size = size
			c.pinned.MoveToFront(el)
		} else {
			c.demand.Remove(el)
			c.bytes -= ent.size
			ent.size = size
			ent.pinned = true
			c.items[key] = c.pinned.PushFront(ent)
			c.bytes += size
			c.pinBytes += size
		}
	} else {
		el := c.pinned.PushFront(&listPinEntry{key: key, size: size, pinned: true})
		c.items[key] = el
		c.bytes += size
		c.pinBytes += size
	}
	// Oldest pinned objects yield past the pinned cap.
	for c.pinBytes > c.maxPinned {
		back := c.pinned.Back()
		ent := back.Value.(*listPinEntry)
		if ent.key == key {
			c.pinned.MoveToFront(back)
			continue
		}
		c.removeElement(back)
		evicted = append(evicted, Item{Key: ent.key, Size: ent.size})
	}
	// Then demand objects yield past the total capacity.
	evicted = append(evicted, c.evictDemandOverflow("")...)
	return evicted, true
}

// Remove implements Cache.
func (c *listPinning) Remove(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

// RemovePinned removes key only if it is resident and pinned, reporting
// whether it did. The replication manager uses it to drop replicas
// without disturbing demand-cached copies.
func (c *listPinning) RemovePinned(key string) bool {
	el, ok := c.items[key]
	if !ok || !el.Value.(*listPinEntry).pinned {
		return false
	}
	c.removeElement(el)
	return true
}

func (c *listPinning) removeElement(el *list.Element) {
	ent := el.Value.(*listPinEntry)
	if ent.pinned {
		c.pinned.Remove(el)
		c.pinBytes -= ent.size
	} else {
		c.demand.Remove(el)
	}
	c.bytes -= ent.size
	delete(c.items, ent.key)
}

func (c *listPinning) Bytes() int64       { return c.bytes }
func (c *listPinning) PinnedBytes() int64 { return c.pinBytes }
func (c *listPinning) Len() int           { return len(c.items) }
