package fst

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// TestSet is the memo of valuated tests shared by every run of a
// configuration: keyed by state key, so a state any run has valuated
// loads its vector instead of re-valuating. Its order means nothing: a
// run reads the history it decides from (the correlation graph, the
// prune ranges, the diversification normaliser) off its own
// Valuator. It is safe for concurrent use: the key map is sharded
// behind per-shard mutexes, and GetOrCompute single-flights concurrent
// valuations of the same state, so parallel workers (and parallel
// engine runs sharing one memo) never duplicate a model inference.
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

	sink atomic.Pointer[func(*Test)]
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
	done chan struct{}
	t    *Test
	err  error
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
// follow-up bookkeeping (exact-call counting, estimator observation).
// A successful computation is memoized and reaches the sink at once. A
// failed computation is forgotten, so a later caller retries; waiters
// of the failed flight receive its error.
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
	ts.toSink(t)
	return t, true, nil
}

// errFlightPanicked is what waiters of a flight receive when its
// compute panicked; the panic itself propagates to the owning caller.
var errFlightPanicked = errors.New("fst: valuation flight panicked")

// Put records a valuated test (idempotent per key, first writer wins)
// and returns the canonical test stored under the key — or, when a
// concurrent run's exact flight for the key is still in the air, the
// caller's own test unrecorded: commits never block on a peer's model
// inference, and the flight memoizes the canonical result itself.
func (ts *TestSet) Put(t *Test) *Test {
	sh := ts.shardFor(t.Key)
	for {
		sh.mu.Lock()
		s, ok := sh.m[t.Key]
		if !ok {
			// Stamp on install, under the shard lock. Tests already
			// recorded carry their install-time stamp.
			t.Version = ts.version.Load()
			sh.m[t.Key] = &testSlot{done: closedCh, t: t}
			sh.mu.Unlock()
			ts.toSink(t)
			return t
		}
		select {
		case <-s.done:
		default:
			// A concurrent run has an exact flight for this key in the
			// air. Don't block a commit on a peer's model inference:
			// this run's value stands for this run alone.
			sh.mu.Unlock()
			return t
		}
		sh.mu.Unlock()
		if s.err != nil {
			// Completed-with-error slots are being vacated; retry.
			continue
		}
		return s.t
	}
}

// SetSink installs fn to observe every test once, the moment
// GetOrCompute or Put first memoizes it — the persistence hook. fn may
// run on several goroutines at once and in any order, so it must be
// safe for concurrent use, fast and non-blocking; a write-behind
// enqueue qualifies. A nil fn detaches. Tests already memoized are not
// replayed to fn — install the sink after recovery has replayed the
// log through Put.
func (ts *TestSet) SetSink(fn func(*Test)) {
	if fn == nil {
		ts.sink.Store(nil)
		return
	}
	ts.sink.Store(&fn)
}

func (ts *TestSet) toSink(t *Test) {
	if fn := ts.sink.Load(); fn != nil {
		(*fn)(t)
	}
}

// each calls fn on every memoized test, shard by shard under the
// shard's lock; in-flight and failed slots are skipped.
func (ts *TestSet) each(fn func(*Test)) {
	for i := range ts.shards {
		sh := &ts.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			select {
			case <-s.done:
				if s.err == nil {
					fn(s.t)
				}
			default:
			}
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of memoized tests.
func (ts *TestSet) Len() int {
	n := 0
	ts.each(func(*Test) { n++ })
	return n
}

// All returns a snapshot of the memoized tests, sorted by key. The
// order carries no meaning; the sort only makes the snapshot
// repeatable.
func (ts *TestSet) All() []*Test {
	var out []*Test
	ts.each(func(t *Test) { out = append(out, t) })
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Version returns the table version the record is current for.
func (ts *TestSet) Version() uint64 { return ts.version.Load() }

// AdvanceTo moves the record to table version v — the memo side of a
// row append. Every completed entry is screened through valid (the
// caller's row-selection predicate, typically Space.SelectionUnchanged
// over the appended rows): surviving tests are re-stamped with v and
// stay memoized, the rest are dropped, and in-flight computations are
// forgotten (their owners finish, but the result is never recorded —
// under the no-runs-during-append contract there are none). A nil
// valid drops everything. It returns the number of completed
// valuations dropped.
//
// v must be at least the current version; AdvanceTo(current, ...) is
// permitted (a re-validation pass) and re-screens the record without
// moving the version.
func (ts *TestSet) AdvanceTo(v uint64, valid func(*Test) bool) (invalidated int) {
	for i := range ts.shards {
		ts.shards[i].mu.Lock()
	}
	defer func() {
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
	return invalidated
}
