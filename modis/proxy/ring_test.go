package proxy

import (
	"fmt"
	"testing"
)

// TestRingDeterminism: routing is a pure function of the membership
// set — permuted (and duplicated) node lists build identical rings, so
// two proxy incarnations agree on every key's owner and failover
// order. This is the property that keeps a shard's jobs, memo, and
// state-dir/<hash>/ on one node across proxy restarts.
func TestRingDeterminism(t *testing.T) {
	a := newRing([]string{"http://n1", "http://n2", "http://n3"})
	b := newRing([]string{"http://n3", "http://n1", "http://n2", "http://n1", ""})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("hash-%04d", i)
		ca, cb := a.candidates(key), b.candidates(key)
		if len(ca) != 3 || len(cb) != 3 {
			t.Fatalf("key %s: candidate walks %v / %v must cover all nodes once", key, ca, cb)
		}
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("key %s: rings over permuted node lists disagree: %v vs %v", key, ca, cb)
			}
		}
		if a.owner(key) != ca[0] {
			t.Fatalf("key %s: owner %q is not the first candidate %q", key, a.owner(key), ca[0])
		}
	}
}

// TestRingSpread: virtual nodes split keys across the fleet — no node
// ends up owning everything or nothing.
func TestRingSpread(t *testing.T) {
	r := newRing([]string{"http://n1", "http://n2", "http://n3"})
	owned := map[string]int{}
	for i := 0; i < 600; i++ {
		owned[r.owner(fmt.Sprintf("hash-%04d", i))]++
	}
	for _, n := range r.nodes {
		if owned[n] == 0 {
			t.Errorf("node %s owns no keys out of 600 — virtual nodes not spreading", n)
		}
		if owned[n] == 600 {
			t.Errorf("node %s owns every key — ring degenerated to one node", n)
		}
	}
}

// TestBoundedPick: alive-and-under-ceiling wins in candidate order;
// dead owners are skipped; overload spills to the next candidate; a
// fully saturated fleet falls back to the least-loaded alive node; a
// fully dead fleet yields "".
func TestBoundedPick(t *testing.T) {
	r := newRing([]string{"http://n1", "http://n2", "http://n3"})
	const key = "some-descriptor-hash"
	cands := r.candidates(key)
	owner, second := cands[0], cands[1]

	aliveAll := func(string) bool { return true }
	idle := func(string) int { return 0 }

	if got := r.boundedPick(key, aliveAll, idle); got != owner {
		t.Errorf("idle fleet: picked %q, want owner %q", got, owner)
	}
	if got := r.boundedPick(key, func(n string) bool { return n != owner }, idle); got != second {
		t.Errorf("dead owner: picked %q, want next candidate %q", got, second)
	}
	if got := r.boundedPick(key, func(string) bool { return false }, idle); got != "" {
		t.Errorf("dead fleet: picked %q, want \"\"", got)
	}

	// Owner far over the bounded-load ceiling while the rest idle: the
	// key spills to the next candidate.
	loaded := func(n string) int {
		if n == owner {
			return 100
		}
		return 0
	}
	if got := r.boundedPick(key, aliveAll, loaded); got != second {
		t.Errorf("overloaded owner: picked %q, want spill to %q", got, second)
	}

	// Everyone saturated equally: fall back to a least-loaded alive
	// node rather than rejecting (admission control owns rejection).
	flat := func(string) int { return 100 }
	if got := r.boundedPick(key, aliveAll, flat); got == "" {
		t.Error("saturated fleet: want the least-loaded alive node, got \"\"")
	}
}
