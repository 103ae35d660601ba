package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/modis"
	"repro/modis/serve"
)

// TestBatchingDeterminismAllAlgorithms: a run submitted alongside
// concurrent same-config runs — their windows' task batches
// interleaving on the shard's pool queue — produces a byte-identical
// skyline to the same run executed solo, for every algorithm. All five
// algorithms run concurrently on one scheduler workload (maximally
// overlapping frontiers), and each is compared against its solo
// baseline on a fresh configuration.
func TestBatchingDeterminismAllAlgorithms(t *testing.T) {
	solo := map[string]string{}
	soloExact := map[string]int{}
	for _, algo := range allAlgorithms() {
		rep, err := modis.NewEngine(newShapeConfig(t, 0)).Run(context.Background(), algo, runOpts()...)
		if err != nil {
			t.Fatalf("solo %s: %v", algo, err)
		}
		solo[algo] = skylineJSON(t, rep)
		soloExact[algo] = rep.ExactCalls
	}

	sched := serve.NewScheduler(serve.SchedulerOptions{})
	cfg := newShapeConfig(t, 50*time.Microsecond)
	registerShape(t, sched, cfg)
	jobs := map[string]*modis.Job{}
	for _, algo := range allAlgorithms() {
		job, err := sched.Submit(context.Background(), "shape", algo, runOpts()...)
		if err != nil {
			t.Fatalf("submit %s: %v", algo, err)
		}
		jobs[algo] = job
	}
	totalConcurrentExact := 0
	totalSoloExact := 0
	for _, algo := range allAlgorithms() {
		rep := mustResult(t, jobs[algo])
		if got := skylineJSON(t, rep); got != solo[algo] {
			t.Errorf("%s: concurrent skyline diverges from solo\n solo:       %s\n concurrent: %s", algo, solo[algo], got)
		}
		totalConcurrentExact += rep.ExactCalls
		totalSoloExact += soloExact[algo]
	}
	// The shared engine (memo + single-flight) must do strictly less
	// exact inference than the five solo runs summed — the concurrent
	// searches traverse heavily overlapping states.
	if totalConcurrentExact >= totalSoloExact {
		t.Errorf("concurrent runs did %d exact inferences, solo sum is %d — sharing bought nothing",
			totalConcurrentExact, totalSoloExact)
	}
}

// TestConcurrentRunsShareInference: two deliberately overlapping runs
// on one shard must together do fewer exact inferences than their
// solo baselines summed.
func TestConcurrentRunsShareInference(t *testing.T) {
	soloTotal := 0
	for _, algo := range []string{"bi", "apx"} {
		rep, err := modis.NewEngine(newShapeConfig(t, 0)).Run(context.Background(), algo, runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		soloTotal += rep.ExactCalls
	}

	// Slow valuations keep both runs in flight together on any machine.
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	cfg := newShapeConfig(t, 200*time.Microsecond)
	registerShape(t, sched, cfg)
	a, err := sched.Submit(context.Background(), "shape", "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Submit(context.Background(), "shape", "apx", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := mustResult(t, a), mustResult(t, b)
	if repA.ExactCalls+repB.ExactCalls >= soloTotal {
		t.Errorf("concurrent runs did %d exact inferences, solo sum is %d",
			repA.ExactCalls+repB.ExactCalls, soloTotal)
	}
}

// TestSchedulerEnginePooling: one workload identity → one engine → a
// repeat run is answered from the shared memo.
func TestSchedulerEnginePooling(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	cfg := newShapeConfig(t, 0)
	registerShape(t, sched, cfg)
	first, err := sched.Submit(context.Background(), "shape", "apx", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, first)
	second, err := sched.Submit(context.Background(), "shape", "apx", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustResult(t, second)
	if rep.Valuated != 0 {
		t.Errorf("repeat run valuated %d states, want 0 (workload engine shared)", rep.Valuated)
	}
	if sched.Engine("shape") == nil || sched.Engine("shape") != sched.Engine("shape") {
		t.Error("Engine must be stable per workload identity")
	}
	if sched.Engine("unregistered") != nil {
		t.Error("Engine must be nil for an unregistered name")
	}
}

// TestSchedulerMaxConcurrentQueues: with one slot, the second job
// waits in admission and its report records the queueing.
func TestSchedulerMaxConcurrentQueues(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{MaxConcurrent: 1})
	cfg := newShapeConfig(t, 500*time.Microsecond)
	registerShape(t, sched, cfg)
	a, err := sched.Submit(context.Background(), "shape", "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Submit(context.Background(), "shape", "nobi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := mustResult(t, a), mustResult(t, b)
	if repA == nil || repB == nil {
		t.Fatal("missing reports")
	}
	if repB.Queued <= 0 {
		t.Errorf("second job queued %v, want > 0 behind MaxConcurrent=1", repB.Queued)
	}
}

// TestSchedulerDrain: draining rejects new work, waits for in-flight
// jobs, and leaves their results intact.
func TestSchedulerDrain(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	cfg := newShapeConfig(t, 200*time.Microsecond)
	registerShape(t, sched, cfg)
	job, err := sched.Submit(context.Background(), "shape", "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- sched.Drain(context.Background()) }()
	// Submissions during/after drain must fail with the sentinel wire
	// layers map to 503 (never a client-error status).
	for {
		_, err := sched.Submit(context.Background(), "shape", "apx")
		if err != nil {
			if !errors.Is(err, serve.ErrDraining) {
				t.Fatalf("draining submit error = %v, want serve.ErrDraining", err)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep := mustResult(t, job); len(rep.Skyline) == 0 {
		t.Error("drained job lost its result")
	}
}

// TestConcurrentSubmitsRaceClean hammers one scheduler from many
// goroutines; run under -race in CI.
func TestConcurrentSubmitsRaceClean(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	cfg := newShapeConfig(t, 0)
	registerShape(t, sched, cfg)
	algos := []string{"apx", "bi", "nobi", "div", "exact", "apx", "bi", "nobi"}
	var wg sync.WaitGroup
	errs := make([]error, len(algos))
	for i, algo := range algos {
		wg.Add(1)
		go func(i int, algo string) {
			defer wg.Done()
			job, err := sched.Submit(context.Background(), "shape", algo, runOpts()...)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = job.Result()
		}(i, algo)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submit %d (%s): %v", i, algos[i], err)
		}
	}
}
