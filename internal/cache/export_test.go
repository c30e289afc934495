package cache

// Keys returns the cached keys from most to least recently used.
func (c *LRU) Keys() []string {
	s := &c.p.s
	keys := make([]string, 0, c.Len())
	for i := s.ents[demand].next; i != demand; i = s.ents[i].next {
		keys = append(keys, s.ents[i].key)
	}
	return keys
}

// Main exposes the demand partition.
func (p *Partitioned) Main() Cache { return p.main }

// Pinned exposes the pinned partition.
func (p *Partitioned) Pinned() Cache { return p.pinned }

// PinnedBytes returns the bytes currently pinned.
func (c *Pinning) PinnedBytes() int64 { return c.pinBytes }

// MaxPinned returns the pinned-region cap.
func (c *Pinning) MaxPinned() int64 { return c.maxPinned }
