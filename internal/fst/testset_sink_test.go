package fst

import (
	"context"
	"sync"
	"testing"

	"repro/internal/skyline"
)

// TestSinkSeesValuationOrder: under concurrent Puts and GetOrComputes
// of overlapping keys, the sink sees every memoized test exactly once —
// the invariant the persisted memo log relies on.
func TestSinkSeesValuationOrder(t *testing.T) {
	ts := NewTestSet()
	var mu sync.Mutex
	var sunk []StateKey
	ts.SetSink(func(tt *Test) {
		mu.Lock()
		sunk = append(sunk, tt.Key)
		mu.Unlock()
	})

	const n = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Overlapping keys across workers: each key must reach
				// the sink exactly once.
				k := StateKey(uint64(i)*2654435761 + uint64(w%2))
				if i%2 == 0 {
					ts.Put(&Test{Key: k, Perf: skyline.Vector{float64(i)}})
					continue
				}
				if _, _, err := ts.GetOrCompute(context.Background(), k, func() (*Test, error) {
					return &Test{Key: k, Perf: skyline.Vector{float64(i)}}, nil
				}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	memo := ts.All()
	mu.Lock()
	defer mu.Unlock()
	if len(memo) != 2*n || len(sunk) != len(memo) {
		t.Fatalf("sink saw %d tests, memo holds %d, want %d", len(sunk), len(memo), 2*n)
	}
	seen := map[StateKey]bool{}
	for _, k := range sunk {
		if seen[k] {
			t.Fatalf("sink saw key %x twice", k)
		}
		seen[k] = true
	}
	for _, tt := range memo {
		if !seen[tt.Key] {
			t.Fatalf("memoized key %x never reached the sink", tt.Key)
		}
	}
}

// TestSinkIdempotentPut: re-Putting an existing key neither re-sinks
// nor re-records it — replayed logs with duplicate records (a retried
// batch after a failed fsync) recover to the same state.
func TestSinkIdempotentPut(t *testing.T) {
	ts := NewTestSet()
	var sunk int
	ts.SetSink(func(*Test) { sunk++ })
	first := &Test{Key: 7, Perf: skyline.Vector{1, 2}}
	ts.Put(first)
	got := ts.Put(&Test{Key: 7, Perf: skyline.Vector{9, 9}})
	if got != first {
		t.Fatal("second Put did not return the canonical test")
	}
	if sunk != 1 || ts.Len() != 1 {
		t.Fatalf("sunk=%d len=%d, want 1/1", sunk, ts.Len())
	}
}
