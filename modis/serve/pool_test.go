package serve_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fst"
	"repro/internal/table"
	"repro/modis"
	"repro/modis/serve"
	"repro/modis/workload"
)

// inferenceGauge tracks the concurrent-inference high-water mark across
// every model that shares it — the observable the pool bound is
// asserted on.
type inferenceGauge struct {
	cur  atomic.Int64
	high atomic.Int64
}

func (g *inferenceGauge) enter() {
	c := g.cur.Add(1)
	for {
		h := g.high.Load()
		if c <= h || g.high.CompareAndSwap(h, c) {
			return
		}
	}
}

func (g *inferenceGauge) exit() { g.cur.Add(-1) }

// gaugedModel is shapeModel with the gauge wrapped around Evaluate and
// a distinct name so differently-named instances register as distinct
// shards.
type gaugedModel struct {
	inner *shapeModel
	name  string
	gauge *inferenceGauge
}

func (m *gaugedModel) Name() string { return m.name }

func (m *gaugedModel) Evaluate(d *table.Table) ([]float64, error) {
	if m.gauge != nil {
		m.gauge.enter()
		defer m.gauge.exit()
	}
	return m.inner.Evaluate(d)
}

// newGaugedConfig builds a shape config whose model carries the gauge
// and a caller-chosen name; rows varies the universal table so two
// configs hash to distinct shards even beyond the model name.
func newGaugedConfig(tb testing.TB, name string, rows int, sleep time.Duration, g *inferenceGauge) *fst.Config {
	tb.Helper()
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < rows; i++ {
		u.MustAppend(table.Row{
			table.Float(float64(i % 3)),
			table.Float(float64(i % 4)),
			table.Int(int64(i % 2)),
		})
	}
	sp := fst.NewSpace(u, "target", fst.SpaceConfig{MaxLiteralsPerAttr: 4})
	return &fst.Config{
		Space: sp,
		Model: &gaugedModel{inner: &shapeModel{space: sp, sleep: sleep}, name: name, gauge: g},
		Measures: []fst.Measure{
			{Name: "p0", Normalize: fst.Identity(1e-3)},
			{Name: "p1", Normalize: fst.Identity(1e-3)},
		},
	}
}

func registerNamed(tb testing.TB, sched *serve.Scheduler, name string, cfg *fst.Config) {
	tb.Helper()
	d, err := workload.Describe(name, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sched.Register(d, cfg); err != nil {
		tb.Fatal(err)
	}
}

// TestSkylineDeterminismAcrossPoolSizes is the tentpole determinism
// property: the scheduler's skylines are a pure function of the
// configuration, never of the worker count. For pool sizes 1, 2, and 8
// every algorithm must reproduce the solo in-process engine's skyline
// byte for byte — both submitted alone and submitted as five
// concurrent, window-merging runs.
func TestSkylineDeterminismAcrossPoolSizes(t *testing.T) {
	want := map[string]string{}
	for _, algo := range allAlgorithms() {
		rep, err := modis.NewEngine(newShapeConfig(t, 0)).Run(context.Background(), algo, runOpts()...)
		if err != nil {
			t.Fatalf("solo %s: %v", algo, err)
		}
		want[algo] = skylineJSON(t, rep)
	}

	for _, workers := range []int{1, 2, 8} {
		// Solo submissions: one job at a time on a fresh scheduler.
		sched := serve.NewScheduler(serve.SchedulerOptions{Workers: workers})
		registerShape(t, sched, newShapeConfig(t, 0))
		for _, algo := range allAlgorithms() {
			job, err := sched.Submit(context.Background(), "shape", algo, runOpts()...)
			if err != nil {
				t.Fatalf("workers=%d submit %s: %v", workers, algo, err)
			}
			if got := skylineJSON(t, mustResult(t, job)); got != want[algo] {
				t.Errorf("workers=%d solo %s: skyline diverges\n want: %s\n got:  %s", workers, algo, want[algo], got)
			}
		}
		sched.Close()

		// Concurrent submissions: all five algorithms in flight at once,
		// sharing the memo and the shard's pool queue.
		sched = serve.NewScheduler(serve.SchedulerOptions{Workers: workers})
		registerShape(t, sched, newShapeConfig(t, 20*time.Microsecond))
		jobs := map[string]*modis.Job{}
		for _, algo := range allAlgorithms() {
			job, err := sched.Submit(context.Background(), "shape", algo, runOpts()...)
			if err != nil {
				t.Fatalf("workers=%d submit %s: %v", workers, algo, err)
			}
			jobs[algo] = job
		}
		for _, algo := range allAlgorithms() {
			if got := skylineJSON(t, mustResult(t, jobs[algo])); got != want[algo] {
				t.Errorf("workers=%d concurrent %s: skyline diverges\n want: %s\n got:  %s", workers, algo, want[algo], got)
			}
		}
		sched.Close()
	}
}

// TestPoolBoundsInferenceConcurrency is the saturation property: two
// workloads flooding one scheduler must never have more model
// inferences executing at once than the pool has workers — however
// many shards and runs are in flight — and both
// workloads must make progress to completion.
func TestPoolBoundsInferenceConcurrency(t *testing.T) {
	const workers = 2
	gauge := &inferenceGauge{}
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: workers})
	defer sched.Close()
	registerNamed(t, sched, "wl-a", newGaugedConfig(t, "shape-a", 24, 100*time.Microsecond, gauge))
	registerNamed(t, sched, "wl-b", newGaugedConfig(t, "shape-b", 36, 100*time.Microsecond, gauge))

	var jobs []*modis.Job
	for i := 0; i < 3; i++ {
		for _, wl := range []string{"wl-a", "wl-b"} {
			job, err := sched.Submit(context.Background(), wl, "exact", runOpts()...)
			if err != nil {
				t.Fatalf("submit %s: %v", wl, err)
			}
			jobs = append(jobs, job)
		}
	}
	for _, job := range jobs {
		if _, err := job.Result(); err != nil {
			t.Fatalf("job %s: %v", job.ID(), err)
		}
	}
	if high := gauge.high.Load(); high > workers {
		t.Errorf("concurrent inferences peaked at %d, pool has %d workers", high, workers)
	}
	if high := gauge.high.Load(); high == 0 {
		t.Error("gauge never saw an inference — test wired wrong")
	}
}

// TestPoolFairShareAcrossShards is the fairness property: a shard
// saturating the pool with a backlog of slow jobs must not stall
// another shard's short job beyond its fair share of the single
// worker. The guest job interleaves with the hog's tasks (DRR) and
// finishes while the hog's backlog is still draining; a FIFO pool
// would finish it last.
func TestPoolFairShareAcrossShards(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1})
	defer sched.Close()
	registerNamed(t, sched, "hog", newGaugedConfig(t, "shape-hog", 24, 400*time.Microsecond, nil))
	registerNamed(t, sched, "guest", newGaugedConfig(t, "shape-guest", 36, 0, nil))

	var hogs []*modis.Job
	for i := 0; i < 4; i++ {
		job, err := sched.Submit(context.Background(), "hog", "exact", runOpts()...)
		if err != nil {
			t.Fatalf("submit hog: %v", err)
		}
		hogs = append(hogs, job)
	}
	// Let the hog start occupying the worker before the guest arrives.
	<-time.After(5 * time.Millisecond)
	guest, err := sched.Submit(context.Background(), "guest", "bi", runOpts()...)
	if err != nil {
		t.Fatalf("submit guest: %v", err)
	}
	if _, err := guest.Result(); err != nil {
		t.Fatalf("guest: %v", err)
	}
	// Bounded wait: when the guest finishes, the hog's backlog must not
	// be fully drained — the guest did not queue behind all of it.
	stillRunning := 0
	for _, job := range hogs {
		select {
		case <-job.Done():
		default:
			stillRunning++
		}
	}
	if stillRunning == 0 {
		t.Error("guest finished only after the hog's entire backlog — no fair interleaving")
	}
	for _, job := range hogs {
		if _, err := job.Result(); err != nil {
			t.Fatalf("hog job %s: %v", job.ID(), err)
		}
	}
}
