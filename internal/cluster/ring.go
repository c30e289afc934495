package cluster

import "sort"

// ringVnodes is the virtual-node count per distributor. 64 points per
// member keeps the ownership split within a few percent of even for
// small fleets.
const ringVnodes = 64

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash    uint32
	replica int
}

// ring is Config.Fleet's session-ownership ring: a consistent-hash ring
// over session keys that assigns each session one owning distributor.
// It is immutable once built.
type ring struct {
	// points is sorted by hash, ties broken by ascending replica id, so
	// the ring is a pure function of the member set.
	points []ringPoint
}

// newRing builds a ring over the given distributor indices, at least
// one. Order and duplicates do not matter.
func newRing(members []int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*ringVnodes)}
	for _, m := range members {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(m, v), replica: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// owner returns the distributor owning key: the first point clockwise
// from the key's hash, wrapping to the first point.
func (r *ring) owner(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].replica
}

// hashKey hashes a session key onto the ring with FNV-1a, inlined
// because hash/fnv's hasher interface allocates and owner runs on every
// request. Same polynomial, same constants as fnv.New32a.
func hashKey(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// vnodeHash hashes one (replica, vnode) pair to a ring position, by
// feeding the FNV-1a stream the replica id and vnode index a byte at a
// time (little-endian, fixed width) so the layout is a pure function of
// the pair, not of any string formatting.
func vnodeHash(replica, vnode int) uint32 {
	h := uint32(2166136261)
	for _, v := range [2]uint32{uint32(replica), uint32(vnode)} {
		for b := 0; b < 4; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= 16777619
		}
	}
	return h
}
