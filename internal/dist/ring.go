// Package dist promotes the single-process campaign engine to a
// coordinator/worker service: a coordinator shards campaign points
// across worker nodes by consistent hashing over the content key, the
// workers run points through the unchanged flow/campaign machinery, and
// every completed result lands in a shared, WAL-backed network result
// store — the paper's Fig. 11 METRICS architecture (wrappers feeding a
// central server) applied to the orchestration layer itself. The store
// is a journal.Keyed behind HTTP and a worker's cache reaches it as a
// campaign.Tier, which is also how a local campaign reaches its journal:
// a rerun over the store's WAL and a resumed local sweep are the same
// L1-miss-then-tier-hit.
//
// The determinism contract survives distribution by construction: a
// flow run is a pure function of its point, results are addressed by
// content key, and the coordinator assembles its output by fetching
// each point's entry from the store — so a campaign sharded over any
// node count, with any interleaving, any reassignment after a node
// death, produces byte-identical results to the single-node reference.
package dist

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over node IDs. Each node projects
// Replicas virtual points onto the ring; a key is owned by the first
// live virtual point clockwise from the key's hash. Assignment is a
// pure function of (node set, liveness, key), so every coordinator
// replica — and every rerun of the same campaign — shards identically,
// and a node death moves only the dead node's keys.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the node IDs with the given virtual-node
// count per node (replicas < 1 is clamped to 1). Node order does not
// matter; the ring is identical for any permutation of the same set.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*replicas)}
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by name so the ring
		// stays a pure function of the node set.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the live node owning key: the first virtual point at or
// clockwise after the key's hash whose node is live. live == nil means
// every node is live. ok is false when no live node exists.
func (r *Ring) Owner(key string, live map[string]bool) (node string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if live == nil || live[p.node] {
			return p.node, true
		}
	}
	return "", false
}

// hash64 is FNV-1a, the repo's standard non-cryptographic hash.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}
