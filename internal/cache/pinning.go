package cache

// Pinning is a shared-capacity cache with a pinned region of *variable*
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
type Pinning struct {
	capacity  int64
	maxPinned int64
	bytes     int64
	pinBytes  int64
	s         slab             // lists demand and pinned, front = most recent
	items     map[string]int32 // key -> slab index
	evicted   []Item           // the insertions' reused result buffer
}

// The slab lists of a Pinning cache.
const (
	demand int32 = iota
	pinned
)

// NewPinning returns a cache with the given total capacity and pinned cap
// (clamped to capacity). It panics on negative arguments.
func NewPinning(capacity, maxPinned int64) *Pinning {
	if capacity < 0 || maxPinned < 0 {
		panic("cache: negative capacity")
	}
	if maxPinned > capacity {
		maxPinned = capacity
	}
	return &Pinning{
		capacity:  capacity,
		maxPinned: maxPinned,
		s:         newSlab(2),
		items:     make(map[string]int32),
	}
}

// Contains implements Cache.
func (c *Pinning) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// IsPinned reports whether key is resident in the pinned region.
func (c *Pinning) IsPinned(key string) bool {
	i, ok := c.items[key]
	return ok && c.s.ents[i].list == pinned
}

// Touch implements Cache.
func (c *Pinning) Touch(key string) bool {
	i, ok := c.items[key]
	if ok {
		c.s.moveToFront(c.s.ents[i].list, i)
	}
	return ok
}

// Insert adds a demand object. It never evicts pinned objects; when the
// object cannot fit beside the current pinned bytes it is rejected.
func (c *Pinning) Insert(key string, size int64) (evicted []Item, ok bool) {
	if size < 0 {
		size = 0
	}
	if i, exists := c.items[key]; exists {
		ent := &c.s.ents[i]
		if ent.list == pinned {
			c.s.moveToFront(pinned, i)
			return nil, true
		}
		if size > c.capacity-c.pinBytes {
			c.remove(i)
			return nil, false
		}
		c.bytes += size - ent.size
		ent.size = size
		c.s.moveToFront(demand, i)
	} else {
		if size > c.capacity-c.pinBytes {
			return nil, false
		}
		c.items[key] = c.s.add(demand, key, size)
		c.bytes += size
	}
	c.evicted = c.evicted[:0]
	c.evictDemandOverflow(key)
	return c.evicted, true
}

// evictDemandOverflow drops demand LRU victims until total bytes fit,
// appending them to the eviction buffer.
func (c *Pinning) evictDemandOverflow(keep string) {
	for c.bytes > c.capacity {
		back := c.s.back(demand)
		if back == demand {
			break // only pinned objects remain; caller guaranteed fit
		}
		ent := c.s.ents[back]
		if ent.key == keep {
			c.s.moveToFront(demand, back)
			continue
		}
		c.remove(back)
		c.evicted = append(c.evicted, Item{Key: ent.key, Size: ent.size})
	}
}

// InsertPinned adds or promotes an object into the pinned region.
func (c *Pinning) InsertPinned(key string, size int64) (evicted []Item, ok bool) {
	if size < 0 {
		size = 0
	}
	if size > c.maxPinned {
		return nil, false
	}
	if i, exists := c.items[key]; exists {
		// Promote or refresh.
		ent := &c.s.ents[i]
		if ent.list == pinned {
			c.pinBytes -= ent.size
		}
		c.bytes += size - ent.size
		c.pinBytes += size
		ent.size = size
		c.s.moveToFront(pinned, i)
	} else {
		c.items[key] = c.s.add(pinned, key, size)
		c.bytes += size
		c.pinBytes += size
	}
	c.evicted = c.evicted[:0]
	// Oldest pinned objects yield past the pinned cap.
	for c.pinBytes > c.maxPinned {
		back := c.s.back(pinned)
		ent := c.s.ents[back]
		if ent.key == key {
			c.s.moveToFront(pinned, back)
			continue
		}
		c.remove(back)
		c.evicted = append(c.evicted, Item{Key: ent.key, Size: ent.size})
	}
	// Then demand objects yield past the total capacity.
	c.evictDemandOverflow("")
	return c.evicted, true
}

// Remove implements Cache.
func (c *Pinning) Remove(key string) bool {
	i, ok := c.items[key]
	if ok {
		c.remove(i)
	}
	return ok
}

// RemovePinned removes key only if it is resident and pinned, reporting
// whether it did. The replication manager uses it to drop replicas
// without disturbing demand-cached copies.
func (c *Pinning) RemovePinned(key string) bool {
	i, ok := c.items[key]
	if !ok || c.s.ents[i].list != pinned {
		return false
	}
	c.remove(i)
	return true
}

func (c *Pinning) remove(i int32) {
	ent := &c.s.ents[i]
	if ent.list == pinned {
		c.pinBytes -= ent.size
	}
	c.bytes -= ent.size
	delete(c.items, ent.key)
	c.s.release(i)
}

// Bytes implements Cache.
func (c *Pinning) Bytes() int64 { return c.bytes }

// Capacity implements Cache.
func (c *Pinning) Capacity() int64 { return c.capacity }

// Len implements Cache.
func (c *Pinning) Len() int { return len(c.items) }

var (
	_ Cache = (*Pinning)(nil)
	_ Store = (*Pinning)(nil)
)
