package cache

// slab holds a cache's entries in one slice, linked by index into
// circular doubly linked lists. Each list is headed by a sentinel entry
// at a fixed index below the first real one; a dropped entry goes onto a
// free list chained through next, so a cache that stays full inserts
// and evicts without allocating. Index 0 is always a sentinel, so a
// free-list head of 0 means the free list is empty.
type slab struct {
	ents []entry
	free int32
}

// entry is one cached object, or a list's sentinel.
type entry struct {
	key        string
	size       int64
	prev, next int32
	list       int32 // the list the entry is linked into
}

// newSlab returns a slab with lists empty lists, numbered from 0.
func newSlab(lists int) slab {
	s := slab{ents: make([]entry, lists)}
	for i := range s.ents {
		s.ents[i].prev, s.ents[i].next = int32(i), int32(i)
	}
	return s
}

// add links a new entry for key at the front of list l, reusing a
// freed entry if there is one, and returns its index.
func (s *slab) add(l int32, key string, size int64) int32 {
	i := s.free
	if i == 0 {
		s.ents = append(s.ents, entry{})
		i = int32(len(s.ents) - 1)
	} else {
		s.free = s.ents[i].next
	}
	s.ents[i] = entry{key: key, size: size}
	s.pushFront(l, i)
	return i
}

// release unlinks entry i and puts it on the free list, dropping its
// key.
func (s *slab) release(i int32) {
	s.unlink(i)
	s.ents[i] = entry{next: s.free}
	s.free = i
}

// unlink takes entry i out of its list.
func (s *slab) unlink(i int32) {
	e := &s.ents[i]
	s.ents[e.prev].next = e.next
	s.ents[e.next].prev = e.prev
}

// pushFront links entry i at the front (most recent end) of list l.
func (s *slab) pushFront(l, i int32) {
	head := s.ents[l].next
	s.ents[i].prev, s.ents[i].next, s.ents[i].list = l, head, l
	s.ents[head].prev = i
	s.ents[l].next = i
}

// moveToFront makes entry i the most recent entry of list l, taking it
// out of whichever list held it.
func (s *slab) moveToFront(l, i int32) {
	s.unlink(i)
	s.pushFront(l, i)
}

// back returns list l's least recent entry, or l itself when the list
// is empty.
func (s *slab) back(l int32) int32 { return s.ents[l].prev }
