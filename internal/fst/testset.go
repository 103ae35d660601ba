package fst

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/skyline"
)

// Test is one valuated test tuple t = (M, D, P) with its performance
// vector.
type Test struct {
	Key  StateKey
	Perf skyline.Vector
	// Features is the state feature vector used to train estimators.
	Features []float64
	// Version is the table version the valuation is current for: the
	// record semantically keys tests by (Key, Version), retaining only
	// the current version (see AdvanceTo). Put and GetOrCompute stamp
	// it; persisted records carry it so warm restarts can re-validate
	// old valuations against rows appended since.
	Version uint64
}

// TestSet is the historical record T of valuated tests, memoizing by
// state key so repeated states load their vector instead of
// re-valuating. It is safe for concurrent use: the key map is sharded
// behind per-shard mutexes, and GetOrCompute single-flights concurrent
// valuations of the same state, so parallel workers (and parallel
// engine runs sharing one record) never duplicate a model inference.
//
// Registration into the valuation order (All/Columns, which feed the
// correlation graph and the diversification normalizer) is decoupled
// from computation: GetOrCompute memoizes the vector immediately, but a
// test only enters the order when Put is called. Search runs commit
// their batches in deterministic child order, so the order — and
// everything derived from it — is identical however many workers
// computed the vectors.
type TestSet struct {
	shards [testShards]testShard

	hits   atomic.Int64
	misses atomic.Int64
	shared atomic.Int64

	// version is the table version every live entry is current for;
	// AdvanceTo moves it forward when rows are appended, dropping the
	// entries the new rows invalidate. Entries are thus semantically
	// keyed by (StateKey, version) with exactly one version retained.
	version atomic.Uint64

	ordMu sync.RWMutex
	order []*Test
	sink  func(*Test)
}

// MemoStats are a TestSet's lifetime memoization counters — the memo
// hit rate the serving layer exports on /metrics.
type MemoStats struct {
	// Hits counts Get probes answered from the memo.
	Hits int64
	// Misses counts Get probes that found nothing (including states
	// whose valuation was still in flight).
	Misses int64
	// Shared counts GetOrCompute calls resolved by another caller's
	// flight — model inferences saved by single-flighting, on top of
	// the plan-time hits.
	Shared int64
}

// MemoStats snapshots the memoization counters.
func (ts *TestSet) MemoStats() MemoStats {
	return MemoStats{Hits: ts.hits.Load(), Misses: ts.misses.Load(), Shared: ts.shared.Load()}
}

// testShards is the shard count of the key map; a power of two so the
// well-mixed Zobrist key selects a shard by masking.
const testShards = 16

type testShard struct {
	mu sync.Mutex
	m  map[StateKey]*testSlot
}

// testSlot is the single-flight cell of one state key: done closes when
// the test (or the computation's error) is available.
type testSlot struct {
	done    chan struct{}
	t       *Test
	err     error
	ordered bool
}

// closedCh is the pre-closed channel of slots born completed (Put).
var closedCh = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// NewTestSet returns an empty record.
func NewTestSet() *TestSet {
	ts := &TestSet{}
	for i := range ts.shards {
		ts.shards[i].m = map[StateKey]*testSlot{}
	}
	return ts
}

func (ts *TestSet) shardFor(key StateKey) *testShard {
	return &ts.shards[uint64(key)&(testShards-1)]
}

// Get loads a memoized test. In-flight computations do not block it: a
// state still being valuated reports absent.
func (ts *TestSet) Get(key StateKey) (*Test, bool) {
	sh := ts.shardFor(key)
	sh.mu.Lock()
	s, ok := sh.m[key]
	sh.mu.Unlock()
	if !ok {
		ts.misses.Add(1)
		return nil, false
	}
	select {
	case <-s.done:
	default:
		ts.misses.Add(1)
		return nil, false
	}
	if s.err != nil {
		ts.misses.Add(1)
		return nil, false
	}
	ts.hits.Add(1)
	return s.t, true
}

// GetOrCompute returns the test for key, running compute at most once
// across concurrent callers: the first caller computes while the rest
// block until the result lands — or until their ctx fires, which
// surfaces ctx.Err() immediately while the owning flight carries on.
// computed reports whether this call ran compute — its caller owns the
// follow-up bookkeeping (exact-call counting, estimator observation,
// and Put for order registration). A failed computation is forgotten,
// so a later caller retries; waiters of the failed flight receive its
// error.
func (ts *TestSet) GetOrCompute(ctx context.Context, key StateKey, compute func() (*Test, error)) (t *Test, computed bool, err error) {
	sh := ts.shardFor(key)
	sh.mu.Lock()
	if s, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		select {
		case <-s.done:
			if s.err == nil {
				ts.shared.Add(1)
			}
			return s.t, false, s.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	s := &testSlot{done: make(chan struct{})}
	sh.m[key] = s
	sh.mu.Unlock()

	// Finish the flight no matter how compute exits: a panic unwinding
	// through it must vacate the slot and release waiters, or the key
	// would be poisoned forever for any caller that recovers above.
	settled := false
	defer func() {
		if settled {
			return
		}
		sh.mu.Lock()
		delete(sh.m, key)
		sh.mu.Unlock()
		s.err = errFlightPanicked
		close(s.done)
	}()

	t, err = compute()
	if err != nil {
		sh.mu.Lock()
		delete(sh.m, key)
		sh.mu.Unlock()
		s.err = err
		settled = true
		close(s.done)
		return nil, false, err
	}
	t.Version = ts.version.Load()
	s.t = t
	settled = true
	close(s.done)
	return t, true, nil
}

// errFlightPanicked is what waiters of a flight receive when its
// compute panicked; the panic itself propagates to the owning caller.
var errFlightPanicked = errors.New("fst: valuation flight panicked")

// Put records a valuated test (idempotent per key, first writer wins)
// and registers it in the valuation order exactly once. It returns the
// canonical test stored under the key — or, when a concurrent run's
// exact flight for the key is still in the air, the caller's own test
// unrecorded: commits never block on a peer's model inference, and the
// flight's owner registers the canonical result itself.
func (ts *TestSet) Put(t *Test) *Test {
	sh := ts.shardFor(t.Key)
	for {
		sh.mu.Lock()
		s, ok := sh.m[t.Key]
		if !ok {
			// Stamp on install, under the shard lock: concurrent runs Put
			// the same canonical *Test (handed out by one GetOrCompute
			// flight), so a stamp outside the lock would be a write race.
			// Tests already recorded carry their install-time stamp.
			t.Version = ts.version.Load()
			s = &testSlot{done: closedCh, t: t}
			sh.m[t.Key] = s
		}
		select {
		case <-s.done:
		default:
			// A concurrent run has an exact flight for this key in the
			// air. Don't block a commit on a peer's model inference: the
			// flight's owner registers the canonical result at its own
			// commit, and this run's value stands for this run alone.
			sh.mu.Unlock()
			return t
		}
		if s.err != nil {
			// Completed-with-error slots are being vacated; retry.
			sh.mu.Unlock()
			continue
		}
		canonical := s.t
		enter := !s.ordered
		s.ordered = true
		sh.mu.Unlock()
		if enter {
			ts.ordMu.Lock()
			ts.order = append(ts.order, canonical)
			if ts.sink != nil {
				// Under ordMu on purpose: the sink sees tests in exactly
				// the order All() reports, so a persisted log replayed
				// through Put reconstructs the valuation order verbatim.
				ts.sink(canonical)
			}
			ts.ordMu.Unlock()
		}
		return canonical
	}
}

// SetSink installs fn to observe every test the moment it enters the
// valuation order — the persistence hook. fn runs with the order lock
// held (Len/All/Columns block while it runs), sees tests in exactly
// valuation order, and must therefore be fast and non-blocking; a
// write-behind enqueue qualifies. A nil fn detaches. Tests already in
// the order are not replayed to fn — install the sink before the
// first Put (recovery does: replay feeds Put first, then the sink is
// attached).
func (ts *TestSet) SetSink(fn func(*Test)) {
	ts.ordMu.Lock()
	ts.sink = fn
	ts.ordMu.Unlock()
}

// Len returns the number of recorded tests.
func (ts *TestSet) Len() int {
	ts.ordMu.RLock()
	defer ts.ordMu.RUnlock()
	return len(ts.order)
}

// All returns a snapshot of the tests in valuation order.
func (ts *TestSet) All() []*Test {
	ts.ordMu.RLock()
	defer ts.ordMu.RUnlock()
	return append([]*Test(nil), ts.order...)
}

// AppendAll snapshots the valuation order into dst (reusing its
// capacity) — the allocation-free variant of All for hot loops that
// re-snapshot as the record grows, e.g. the prune history that the
// search refreshes between valuation windows.
func (ts *TestSet) AppendAll(dst []*Test) []*Test {
	ts.ordMu.RLock()
	defer ts.ordMu.RUnlock()
	return append(dst[:0], ts.order...)
}

// Version returns the table version the record is current for.
func (ts *TestSet) Version() uint64 { return ts.version.Load() }

// AdvanceTo moves the record to table version v — the memo side of a
// row append. Every completed entry is screened through valid (the
// caller's row-selection predicate, typically Space.SelectionUnchanged
// over the appended rows): surviving tests are re-stamped with v and
// stay memoized, the rest are dropped, and in-flight computations are
// forgotten (their owners finish, but the result is never recorded —
// under the no-runs-during-append contract there are none). The
// valuation order keeps only surviving tests, in their original
// order, so the correlation graph and diversification normalizer see
// a record consistent with the new table. A nil valid drops
// everything. It returns the number of completed valuations dropped.
//
// v must be at least the current version; AdvanceTo(current, ...) is
// permitted (a re-validation pass) and re-screens the record without
// moving the version.
func (ts *TestSet) AdvanceTo(v uint64, valid func(*Test) bool) (invalidated int) {
	for i := range ts.shards {
		ts.shards[i].mu.Lock()
	}
	ts.ordMu.Lock()
	defer func() {
		ts.ordMu.Unlock()
		for i := testShards - 1; i >= 0; i-- {
			ts.shards[i].mu.Unlock()
		}
	}()
	if cur := ts.version.Load(); v < cur {
		panic(fmt.Sprintf("fst: AdvanceTo(%d) below current version %d", v, cur))
	}
	ts.version.Store(v)
	for i := range ts.shards {
		m := ts.shards[i].m
		for key, s := range m {
			select {
			case <-s.done:
			default:
				// In-flight: the eventual result valuates the old table.
				delete(m, key)
				continue
			}
			if s.err != nil {
				delete(m, key)
				continue
			}
			if valid != nil && valid(s.t) {
				s.t.Version = v
				continue
			}
			delete(m, key)
			invalidated++
		}
	}
	keep := ts.order[:0]
	for _, t := range ts.order {
		if t.Version == v {
			keep = append(keep, t)
		}
	}
	for i := len(keep); i < len(ts.order); i++ {
		ts.order[i] = nil
	}
	ts.order = keep
	return invalidated
}

// Columns returns, for measure index j, the series of recorded values —
// the distribution the correlation graph G_C is computed from.
func (ts *TestSet) Columns(numMeasures int) [][]float64 {
	ts.ordMu.RLock()
	defer ts.ordMu.RUnlock()
	cols := make([][]float64, numMeasures)
	for _, t := range ts.order {
		for j := 0; j < numMeasures && j < len(t.Perf); j++ {
			cols[j] = append(cols[j], t.Perf[j])
		}
	}
	return cols
}
