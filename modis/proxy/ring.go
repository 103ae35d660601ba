// Package proxy is the multi-node routing layer of the serving stack:
// a thin HTTP proxy (command modisproxy) that consistent-hashes
// workload descriptor hashes across a fleet of modisd nodes, forwards
// the job API and SSE event streams transparently, and applies
// per-tenant admission control at the front door.
//
// Routing is deterministic in the fleet configuration: the same node
// list and the same descriptor hash pick the same node on every proxy
// incarnation, so a shard's jobs — and therefore its memoized
// valuations and persisted state-dir/<hash>/ directory — concentrate
// on one owner without any coordination between proxies.
package proxy

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// ring is a consistent-hash ring with virtual nodes and bounded-load
// candidate selection. It is immutable after construction; nodes holds
// the members, sorted.
type ring struct {
	nodes  []string
	points []ringPoint
}

type ringPoint struct {
	h    uint64
	node string
}

// virtualNodes is the per-node point count. More points smooth the
// load split between nodes; 64 keeps the max/mean shard imbalance low
// for small fleets without making ring construction noticeable.
const virtualNodes = 64

// loadFactor is the bounded-load ceiling multiplier: a node takes its
// keys until its in-flight count exceeds loadFactor × the fleet
// average, then keys spill to the next ring candidate.
const loadFactor = 1.25

// hashKey positions a routing key (a descriptor hash) on the ring.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring over the given node addresses. Node order does
// not matter — the ring sorts — and duplicate addresses collapse, so
// two proxies configured with permuted node lists route identically.
func newRing(nodes []string) *ring {
	seen := map[string]bool{}
	r := &ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*virtualNodes)
	for _, n := range r.nodes {
		for i := 0; i < virtualNodes; i++ {
			sum := sha256.Sum256([]byte(n + "#" + itoa(i)))
			r.points = append(r.points, ringPoint{h: binary.BigEndian.Uint64(sum[:8]), node: n})
		}
	}
	// Ties (astronomically unlikely) break by node name, so the walk
	// order is a pure function of the membership set.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

// candidates returns every node in preference order for the key: the
// clockwise walk from the key's ring position, deduplicated. The first
// entry is the key's owner; the rest are the failover order a
// bounded-load or dead-node pass falls through.
func (r *ring) candidates(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, len(r.nodes))
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// owner returns the key's first-choice node ("" on an empty ring).
func (r *ring) owner(key string) string {
	c := r.candidates(key)
	if len(c) == 0 {
		return ""
	}
	return c[0]
}

// boundedPick walks the key's candidates and returns the first node
// that is alive and under the bounded-load ceiling
// ceil(loadFactor·(totalInflight+1)/aliveCount) — the classic
// consistent-hashing-with-bounded-loads rule: keys route to their
// owner until the owner is overloaded relative to the fleet average,
// then spill to the next candidate. If every alive candidate is at the
// ceiling the least-loaded alive one is returned (admission control,
// not routing, is where hard rejection lives); "" means no candidate
// is alive.
func (r *ring) boundedPick(key string, alive func(string) bool, inflight func(string) int) string {
	cands := r.candidates(key)
	total, nAlive := 0, 0
	for _, n := range r.nodes {
		if alive(n) {
			nAlive++
			total += inflight(n)
		}
	}
	if nAlive == 0 {
		return ""
	}
	ceiling := int(math.Ceil(loadFactor * float64(total+1) / float64(nAlive)))
	best, bestLoad := "", math.MaxInt
	for _, n := range cands {
		if !alive(n) {
			continue
		}
		load := inflight(n)
		if load < ceiling {
			return n
		}
		if load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}
