package cluster

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Ring is a consistent-hash ring with virtual nodes: each member owns
// vnodes points on a 64-bit circle, and a device belongs to the
// member owning the first point at or clockwise of the device's hash.
// Adding or removing one member therefore moves only the devices in
// the arcs that member's points cover — about K/N of them — instead of
// reshuffling everything, which is what keeps failover cheap.
//
// Determinism: point positions are a pure function of (seed, member
// name, replica index) through a fixed FNV-1a/splitmix64 hash, with
// ties broken by member name. Two rings built with the same seed and
// member set answer Owner identically on every run, platform, and
// GOMAXPROCS setting — the property the cluster's byte-identical
// placement log rests on.
//
// Ring is not safe for concurrent use; the coordinator guards it with
// its own lock.
type Ring struct {
	seed   uint64
	vnodes int
	points []ringPoint // sorted by (hash, node)
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// virtualNodes is the coordinator's ring size per member, enough to
// balance a thousand devices across a handful of nodes to within a few
// percent.
const virtualNodes = 128

// NewRing returns an empty ring. vnodes <= 0 defaults to virtualNodes.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	return &Ring{seed: seed, vnodes: vnodes, nodes: make(map[string]bool)}
}

// hash64 is FNV-1a over the key followed by a splitmix64 finalizer —
// the same avalanche construction the trace sampler uses — so nearby
// keys ("node-1#7", "node-1#8") land far apart on the circle.
func (r *Ring) hash64(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ r.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Add inserts a member and its virtual nodes. Adding a present member
// is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash: r.hash64("node:" + node + "#" + strconv.Itoa(i)),
			node: node,
		})
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return strings.Compare(a.node, b.node)
	})
}

// Remove deletes a member and its virtual nodes. Removing an absent
// member is a no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning the device, or false on an empty
// ring.
func (r *Ring) Owner(device string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := r.hash64("dev:" + device)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return r.points[i].node, true
}

// Has reports whether the member is on the ring.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }
