package modis_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/modis"
)

func TestSubmitJobLifecycle(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	job, err := eng.Submit(context.Background(), "bi",
		modis.WithBudget(80), modis.WithMaxLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() == "" || job.Algorithm() != "bi" {
		t.Fatalf("job handle malformed: id=%q algo=%q", job.ID(), job.Algorithm())
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job never finished")
	}
	rep, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobID != job.ID() {
		t.Errorf("report JobID = %q, want %q", rep.JobID, job.ID())
	}
	if rep.Queued < 0 {
		t.Errorf("negative queue time %v", rep.Queued)
	}
	if len(rep.Skyline) == 0 {
		t.Error("empty skyline")
	}
	// Result is repeatable.
	rep2, err := job.Result()
	if err != nil || rep2 != rep {
		t.Errorf("second Result = (%p, %v), want same report", rep2, err)
	}
}

func TestSubmitReportsErrorsSynchronously(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	if _, err := eng.Submit(context.Background(), "no-such-algo"); err == nil {
		t.Error("unknown algorithm must fail at Submit")
	}
	if _, err := eng.Submit(context.Background(), "bi", modis.WithEpsilon(-1)); err == nil {
		t.Error("invalid option must fail at Submit")
	}
}

func TestJobEventsReplayAndOrdering(t *testing.T) {
	// The in-process WithProgress hook is the ordering reference: a
	// job's event stream must deliver the same events in the same order,
	// and every late subscription must replay the full sequence.
	var direct []modis.Event
	eng := modis.NewEngine(newTestConfig(t, nil))
	job, err := eng.Submit(context.Background(), "bi",
		modis.WithBudget(80), modis.WithMaxLevel(3),
		modis.WithProgress(func(ev modis.Event) { direct = append(direct, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []modis.Event
	for ev := range job.Events() {
		streamed = append(streamed, ev)
	}
	if _, err := job.Result(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(direct) {
		t.Fatalf("streamed %d events, progress hook saw %d", len(streamed), len(direct))
	}
	for i := range direct {
		if direct[i] != streamed[i] {
			t.Fatalf("event %d diverges: hook %+v stream %+v", i, direct[i], streamed[i])
		}
	}
	if !streamed[len(streamed)-1].Done {
		t.Error("stream must end with the Done event")
	}
	// A subscriber arriving after completion still gets the whole run.
	var replay []modis.Event
	for ev := range job.Events() {
		replay = append(replay, ev)
	}
	if len(replay) != len(direct) {
		t.Errorf("post-completion replay got %d events, want %d", len(replay), len(direct))
	}
	if last, ok := job.LastEvent(); !ok || !last.Done {
		t.Errorf("LastEvent = (%+v, %v), want the Done event", last, ok)
	}
}

// TestJobStreamEndImpliesDone pins the invariant wire layers build on:
// once a job's event stream has ended, Done is already closed, so a
// handler that drains the stream and then checks Done without blocking
// never skips the terminal status. Memo-warm jobs keep the runs short,
// and more submitters than cores get job goroutines descheduled at any
// point of finishing — the window a wrong finish order leaves open.
func TestJobStreamEndImpliesDone(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	var wg sync.WaitGroup
	var early atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				job, err := eng.Submit(context.Background(), "bi",
					modis.WithBudget(80), modis.WithMaxLevel(3))
				if err != nil {
					t.Error(err)
					return
				}
				for range job.Events() {
				}
				select {
				case <-job.Done():
				default:
					early.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := early.Load(); n > 0 {
		t.Fatalf("%d event streams ended before their job's Done closed", n)
	}
}

func TestJobEventsContextStopsStream(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	job, err := eng.Submit(context.Background(), "bi",
		modis.WithBudget(80), modis.WithMaxLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := job.EventsContext(ctx)
	cancel()
	for range ch { // must terminate even though nothing drains the run
	}
	if _, err := job.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestJobCancelReturnsPromptly(t *testing.T) {
	started := make(chan struct{})
	cfg := newTestConfig(t, func(calls int) {
		if calls == 2 {
			close(started)
		}
		time.Sleep(time.Millisecond)
	})
	job, err := modis.NewEngine(cfg).Submit(context.Background(), "exact")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	job.Cancel()
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not finish promptly")
	}
	rep, err := job.Result()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled job must not carry a report")
	}
	job.Cancel() // idempotent
}

func TestJobDeadlineSurfacesAsTerminalError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	cfg := newTestConfig(t, func(int) { time.Sleep(2 * time.Millisecond) })
	job, err := modis.NewEngine(cfg).Submit(ctx, "bi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestJobAdmissionGateAndQueueTime(t *testing.T) {
	gate := make(chan struct{})
	eng := modis.NewEngine(newTestConfig(t, nil))
	job, err := eng.Submit(context.Background(), "bi",
		modis.WithBudget(40), modis.WithMaxLevel(2),
		modis.WithAdmission(func(ctx context.Context) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if job.Started() {
		t.Error("job must not start before admission")
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	rep, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !job.Started() {
		t.Error("finished job must report started")
	}
	if rep.Queued < 15*time.Millisecond {
		t.Errorf("queue time %v does not cover the admission wait", rep.Queued)
	}
}

func TestJobAdmissionHonorsCancel(t *testing.T) {
	eng := modis.NewEngine(newTestConfig(t, nil))
	job, err := eng.Submit(context.Background(), "bi",
		modis.WithAdmission(func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}))
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestUnknownAlgorithmErrorIsTyped(t *testing.T) {
	_, err := modis.NewEngine(newTestConfig(t, nil)).Run(context.Background(), "genetic")
	var ua *modis.UnknownAlgorithmError
	if !errors.As(err, &ua) {
		t.Fatalf("err = %T %v, want *UnknownAlgorithmError", err, err)
	}
	if ua.Name != "genetic" || len(ua.Known) == 0 {
		t.Errorf("typed error incomplete: %+v", ua)
	}
	for _, known := range allAlgorithms() {
		found := false
		for _, k := range ua.Known {
			if k == known {
				found = true
			}
		}
		if !found {
			t.Errorf("Known %v misses %q", ua.Known, known)
		}
	}
}
