// Package cluster is the multi-node serving substrate: a deterministic
// consistent-hash ring that maps model names onto a node set with a
// fixed fallback order, and a node-state tracker fed by background
// health probes. The cluster-aware client composes the two — route by
// ring, skip nodes the tracker believes are down, fail over in ring
// order — and the store-watch refresh in internal/service keeps the
// nodes' registries converged, so the pieces form a serving tier where
// killing a node loses no requests.
//
// Everything here is deterministic on purpose: the ring is a pure
// function of the node address list (every client with the same node
// set computes the same preferred node and the same fallback order for
// a model, without any coordination), and the probe loop's jitter is
// drawn from a fixed-seed generator so multi-node tests replay exactly.
package cluster

import (
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node virtual point count used when
// NewRing is given a non-positive count. 64 points per node keeps the
// key-space share of each node within a few percent of uniform for
// small clusters while keeping ring construction trivial.
const DefaultVirtualNodes = 64

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node int // index into Ring.addrs
}

// Ring is an immutable consistent-hash ring over a node address list.
// It answers one question: for a key (a model name), which node is
// preferred, and in what fixed order do the remaining nodes serve as
// fallbacks. Safe for concurrent use.
type Ring struct {
	addrs  []string
	points []point
}

// NewRing builds a ring over addrs (order-insensitive: the ring is a
// function of the address values, not their listing order; duplicates
// are dropped). vnodes is the virtual point count per node; <= 0
// selects DefaultVirtualNodes.
func NewRing(addrs []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	// Deduplicate, then sort so listing order cannot change the ring.
	seen := make(map[string]bool, len(addrs))
	uniq := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if !seen[a] {
			seen[a] = true
			uniq = append(uniq, a)
		}
	}
	sort.Strings(uniq)
	r := &Ring{addrs: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for i, a := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(a + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so the ring
		// stays a pure function of the address set.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Addrs returns the ring's node addresses (deduplicated, sorted). The
// indices returned by OrderInto index into this slice. Callers must
// not mutate it.
func (r *Ring) Addrs() []string { return r.addrs }

// OrderInto appends key's full node preference order to dst (node
// indices into Addrs, preferred node first, every node exactly once)
// and returns it. The order is the ring walk clockwise from the key's
// hash: the fixed fallback sequence every client computes identically.
// With a capacity-sufficient dst it does not allocate.
func (r *Ring) OrderInto(key string, dst []int) []int {
	n := len(r.addrs)
	if n == 0 {
		return dst[:0]
	}
	dst = dst[:0]
	h := hashKey(key)
	// First point at or after h, wrapping.
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var seen uint64 // node-index bitset; rings are small (tested to 64 nodes)
	if n <= 64 {
		for i := 0; i < len(r.points) && len(dst) < n; i++ {
			p := r.points[(start+i)%len(r.points)]
			if seen&(1<<uint(p.node)) == 0 {
				seen |= 1 << uint(p.node)
				dst = append(dst, p.node)
			}
		}
		return dst
	}
	seenMap := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(dst) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seenMap[p.node] {
			seenMap[p.node] = true
			dst = append(dst, p.node)
		}
	}
	return dst
}

// hashKey is the ring's hash: FNV-1a 64 with a murmur-style finalizer,
// chosen for determinism across processes and architectures (the ring
// must be identical on every client and every node). Raw FNV-1a has
// weak high-bit avalanche on short keys — and ring position is decided
// by the high bits — so without the finalizer short model names all
// cluster onto one node. Inlined so per-request routing allocates
// nothing.
func hashKey(s string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
