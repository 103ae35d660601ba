package fst

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/skyline"
	"repro/internal/table"
	"repro/internal/workpool"
)

// TestGetOrComputeSingleFlight: concurrent callers racing on one key
// share a single computation.
func TestGetOrComputeSingleFlight(t *testing.T) {
	ts := NewTestSet()
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 8

	var wg sync.WaitGroup
	results := make([]*Test, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := ts.GetOrCompute(context.Background(), 42, func() (*Test, error) {
				computes.Add(1)
				<-release
				return &Test{Key: 42, Perf: skyline.Vector{0.5}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = got
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1 (single flight)", n)
	}
	for _, r := range results {
		if r != results[0] {
			t.Error("callers received different test instances")
		}
	}
}

// TestGetOrComputeWaiterHonorsContext: a caller waiting on another
// flight returns ctx.Err() as soon as its context fires instead of
// blocking for the full inference; the owning flight is undisturbed.
func TestGetOrComputeWaiterHonorsContext(t *testing.T) {
	ts := NewTestSet()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		ts.GetOrCompute(context.Background(), 5, func() (*Test, error) {
			close(started)
			<-release
			return &Test{Key: 5, Perf: skyline.Vector{0.2}}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ts.GetOrCompute(ctx, 5, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	// The owning flight still lands its result.
	tst, computed, err := ts.GetOrCompute(context.Background(), 5, nil)
	if err != nil || computed || tst == nil || tst.Perf[0] != 0.2 {
		t.Fatalf("flight result lost: %v computed=%v err=%v", tst, computed, err)
	}
}

// TestGetOrComputeErrorVacatesSlot: a failed flight is forgotten so a
// later caller retries, and Put of the retried result is idempotent.
func TestGetOrComputeErrorVacatesSlot(t *testing.T) {
	ts := NewTestSet()
	boom := errors.New("boom")
	if _, _, err := ts.GetOrCompute(context.Background(), 7, func() (*Test, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := ts.Get(7); ok {
		t.Fatal("failed computation must not be memoized")
	}
	tst, computed, err := ts.GetOrCompute(context.Background(), 7, func() (*Test, error) {
		return &Test{Key: 7, Perf: skyline.Vector{0.1}}, nil
	})
	if err != nil || !computed {
		t.Fatalf("retry: computed=%v err=%v", computed, err)
	}
	if canonical := ts.Put(tst); canonical != tst {
		t.Error("Put of a computed test must return it as canonical")
	}
	if ts.Len() != 1 {
		t.Fatalf("memo length = %d, want 1", ts.Len())
	}
	// Re-putting is idempotent: same canonical, no duplicate entry.
	ts.Put(&Test{Key: 7, Perf: skyline.Vector{9}})
	if ts.Len() != 1 {
		t.Fatal("duplicate Put grew the memo")
	}
}

// safeCountModel is countingModel with a mutex: concurrent valuation
// requires models to tolerate concurrent Evaluate calls.
type safeCountModel struct {
	mu    sync.Mutex
	calls int
}

func (m *safeCountModel) Name() string { return "safe-counting" }

func (m *safeCountModel) Evaluate(d *table.Table) ([]float64, error) {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	return []float64{float64(d.NumRows()) / 100, float64(d.NumCols()) / 100}, nil
}

func (m *safeCountModel) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// valuateWindows drives v over states on the search's progressive
// window schedule (1, 2, 4, ... MaxWindow), stopping after a window the
// budget cut short, and returns how many leading states were processed.
func valuateWindows(ctx context.Context, v *Valuator, states []*State, budget int) (int, error) {
	done := 0
	for size := 1; done < len(states); size = GrowWindow(size) {
		window := states[done:min(done+size, len(states))]
		n, err := v.ValuateWindow(ctx, window, budget)
		done += n
		if err != nil || n < len(window) {
			return done, err
		}
	}
	return done, nil
}

// TestValuateWindowsBudgetCut: the windows stop exactly at the budget —
// mid-window — and leave the remaining states untouched, like the
// sequential loop.
func TestValuateWindowsBudgetCut(t *testing.T) {
	cfg := testConfig(&countingModel{})
	cfg.Validate()
	val := cfg.NewValuator(workpool.Global().NewQueue("test", 4))

	full := cfg.Space.FullBitmap()
	var states []*State
	for i := 0; i < 6; i++ {
		b := full.Clone()
		b.Clear(i)
		states = append(states, &State{Bits: b, Level: 1, Via: i})
	}
	n, err := valuateWindows(context.Background(), val, states, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("processed %d states, want 4 (budget)", n)
	}
	if val.Stats.Valuations() != 4 {
		t.Fatalf("valuations = %d, want 4", val.Stats.Valuations())
	}
	for _, s := range states[:4] {
		if !s.Valuated() {
			t.Error("processed state missing its vector")
		}
	}
	for _, s := range states[4:] {
		if s.Valuated() {
			t.Error("beyond-budget state must stay unvaluated")
		}
	}
}

// TestValuateWindowsMemoHitsAreFree: memoized states fill from T without
// consuming budget or model calls.
func TestValuateWindowsMemoHitsAreFree(t *testing.T) {
	m := &countingModel{}
	cfg := testConfig(m)
	cfg.Validate()
	val := cfg.NewValuator(nil)

	full := cfg.Space.FullBitmap()
	b := full.Clone()
	b.Clear(0)
	if _, err := val.Valuate(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	states := []*State{{Bits: b.Clone(), Level: 1}}
	n, err := valuateWindows(context.Background(), val, states, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !states[0].Valuated() {
		t.Fatal("memo hit must still fill the state")
	}
	if val.Stats.Valuations() != 1 {
		t.Errorf("valuations = %d, want 1 (hit is free)", val.Stats.Valuations())
	}
	if m.calls.Load() != 1 {
		t.Errorf("model calls = %d, want 1", m.calls.Load())
	}
}

// TestValuateWindowsCancelledContext: cancellation surfaces as ctx.Err()
// from the window.
func TestValuateWindowsCancelledContext(t *testing.T) {
	cfg := testConfig(&countingModel{})
	cfg.Validate()
	val := cfg.NewValuator(workpool.Global().NewQueue("test", 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := cfg.Space.FullBitmap()
	_, err := val.ValuateWindow(ctx, []*State{{Bits: b}}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentValuatorsShareMemo: two runs' valuators against one
// config race over the same states; the memo single-flights so the
// model never evaluates one state twice, and both runs see vectors.
func TestConcurrentValuatorsShareMemo(t *testing.T) {
	m := &safeCountModel{}
	cfg := testConfig(m)
	cfg.Validate()

	full := cfg.Space.FullBitmap()
	mkStates := func() []*State {
		var out []*State
		for i := 0; i < cfg.Space.Size(); i++ {
			b := full.Clone()
			b.Clear(i)
			out = append(out, &State{Bits: b, Level: 1, Via: i})
		}
		return out
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := cfg.NewValuator(workpool.Global().NewQueue("test", 2))
			states := mkStates()
			if _, err := valuateWindows(context.Background(), val, states, 0); err != nil {
				t.Error(err)
			}
			for _, s := range states {
				if !s.Valuated() {
					t.Error("state left unvaluated")
				}
			}
		}()
	}
	wg.Wait()
	if m.count() != cfg.Space.Size() {
		t.Errorf("model calls = %d, want %d (cross-run single flight)", m.count(), cfg.Space.Size())
	}
}

// recordingRunner is a minimal compliant ExactRunner: it runs every
// task inline (in reverse order, to prove order-independence) and
// counts the windows it received.
type recordingRunner struct {
	mu      sync.Mutex
	windows int
	tasks   int
}

func (r *recordingRunner) RunExact(ctx context.Context, tasks []func()) {
	r.mu.Lock()
	r.windows++
	r.tasks += len(tasks)
	r.mu.Unlock()
	for i := len(tasks) - 1; i >= 0; i-- {
		tasks[i]()
	}
}

// TestExactRunnerMatchesBuiltinPool: any compliant runner — one that
// executes windows in reverse on the caller's goroutine, or a queue of
// the process-global pool (what modis.WithParallelism installs) —
// yields byte-identical valuations, history, and stats to the inline
// valuator, and receives exactly the exact-inference tasks.
func TestExactRunnerMatchesBuiltinPool(t *testing.T) {
	run := func(r ExactRunner) ([]*State, *Valuator) {
		cfg := testConfig(&countingModel{})
		cfg.Validate()
		val := cfg.NewValuator(r)
		full := cfg.Space.FullBitmap()
		var states []*State
		for i := 0; i < cfg.Space.Size(); i++ {
			b := full.Clone()
			b.Clear(i)
			states = append(states, &State{Bits: b, Level: 1, Via: i})
		}
		if _, err := valuateWindows(context.Background(), val, states, 0); err != nil {
			t.Fatal(err)
		}
		return states, val
	}

	base, bval := run(nil)
	rr := &recordingRunner{}
	for _, r := range []struct {
		name   string
		runner ExactRunner
	}{
		{"recording", rr},
		{"queue", workpool.Global().NewQueue("test", 2)},
	} {
		got, gval := run(r.runner)
		if bval.Stats.Valuations() != gval.Stats.Valuations() || bval.Stats.ExactCalls() != gval.Stats.ExactCalls() {
			t.Errorf("%s: stats diverge: inline (%d, %d) runner (%d, %d)", r.name,
				bval.Stats.Valuations(), bval.Stats.ExactCalls(), gval.Stats.Valuations(), gval.Stats.ExactCalls())
		}
		for i := range base {
			if len(base[i].Perf) != len(got[i].Perf) {
				t.Fatalf("%s: state %d vector length diverges", r.name, i)
			}
			for j := range base[i].Perf {
				if base[i].Perf[j] != got[i].Perf[j] {
					t.Fatalf("%s: state %d perf diverges: %v vs %v", r.name, i, base[i].Perf, got[i].Perf)
				}
			}
		}
		bh, gh := bval.History(), gval.History()
		if len(bh) != len(base) || len(bh) != len(gh) {
			t.Fatalf("%s: history lengths %d (inline) and %d (runner), want %d", r.name, len(bh), len(gh), len(base))
		}
		for i := range bh {
			if bh[i].Key != gh[i].Key || bh[i].Key != base[i].Key() {
				t.Fatalf("%s: history diverges at %d", r.name, i)
			}
		}
	}
	if rr.windows == 0 || rr.tasks != len(base) {
		t.Fatalf("runner saw %d windows / %d tasks, want all %d exact inferences", rr.windows, rr.tasks, len(base))
	}
}
