package serve_test

// Resilience contract tests: idempotent submission (single-flight,
// replay semantics on the wire, recovery across restarts), overload
// shedding (bounded admission queue, max queue wait), deadline-budget
// enforcement, SSE resume with Last-Event-ID, and the client's unified
// retry/backoff.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/modis/serve"
)

// postJob POSTs a submit request and returns the raw response plus
// decoded status.
func postJob(tb testing.TB, url string, req serve.SubmitRequest, headers map[string]string) (*http.Response, *serve.JobStatus) {
	tb.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(string(blob)))
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st serve.JobStatus
	json.Unmarshal(body, &st)
	return resp, &st
}

// TestIdempotentSubmitReplays: a repeated key answers 200 with the
// Idempotency-Replayed header and the original job, whether the key
// traveled in the body or the header; a fresh key answers 202.
func TestIdempotentSubmitReplays(t *testing.T) {
	_, hs := newTestServer(t, 0)
	req := serve.SubmitRequest{
		Workload:  "shape",
		Algorithm: "bi",
		Options:   &serve.JobOptions{Epsilon: fp(0.15), MaxLevel: intp(3), Seed: i64p(2), K: intp(3)},
	}
	req.IdempotencyKey = "key-replay"

	first, st1 := postJob(t, hs.URL, req, nil)
	if first.StatusCode != http.StatusAccepted || first.Header.Get(serve.ReplayedHeader) != "" {
		t.Fatalf("fresh keyed submit: status %d, replay header %q; want 202 and none",
			first.StatusCode, first.Header.Get(serve.ReplayedHeader))
	}

	second, st2 := postJob(t, hs.URL, req, nil)
	if second.StatusCode != http.StatusOK || second.Header.Get(serve.ReplayedHeader) != "true" || !st2.Replayed || st1.Replayed {
		t.Fatalf("replayed submit: status %d, replay header %q, body replayed %v (first %v); want 200, true, true (false)",
			second.StatusCode, second.Header.Get(serve.ReplayedHeader), st2.Replayed, st1.Replayed)
	}
	if st2.JobID != st1.JobID {
		t.Fatalf("replay returned job %q, want original %q", st2.JobID, st1.JobID)
	}
	if st2.IdemKey != "key-replay" {
		t.Errorf("replayed status carries key %q, want %q", st2.IdemKey, "key-replay")
	}

	// Header form: empty body key, Idempotency-Key header fills it.
	req.IdempotencyKey = ""
	third, st3 := postJob(t, hs.URL, req, map[string]string{serve.IdempotencyHeader: "key-replay"})
	if third.StatusCode != http.StatusOK || st3.JobID != st1.JobID {
		t.Fatalf("header-keyed replay: status %d job %q, want 200 and %q", third.StatusCode, st3.JobID, st1.JobID)
	}

	// A different key is a different logical submission.
	req.IdempotencyKey = "key-other"
	fourth, st4 := postJob(t, hs.URL, req, nil)
	if fourth.StatusCode != http.StatusAccepted || st4.JobID == st1.JobID {
		t.Fatalf("distinct key: status %d job %q, want a fresh 202 job", fourth.StatusCode, st4.JobID)
	}
}

// TestIdempotentSubmitSingleFlight: concurrent submissions under one
// key resolve to exactly one job — one runs, the rest wait for its
// acceptance and replay it.
func TestIdempotentSubmitSingleFlight(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	registerShape(t, sched, newShapeConfig(t, time.Millisecond))
	ctx := context.Background()

	const racers = 8
	ids := make([]string, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, _, err := sched.SubmitKeyed(ctx, "shape", "bi", "key-race", runOpts()...)
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			ids[i] = rec.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("racer %d got job %q, racer 0 got %q; want one job", i, ids[i], ids[0])
		}
	}
	if jobs := sched.Jobs(); len(jobs) != 1 {
		t.Fatalf("%d jobs exist after %d same-key submissions, want 1", len(jobs), racers)
	}
}

// TestIdempotencyRecoveredAcrossRestart: a key bound in one
// incarnation dedupes in the next — the recovered ledger re-registers
// it, so a proxy failover retry after a node crash still cannot
// double-run.
func TestIdempotencyRecoveredAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	pA := openPersist(t, dir, nil)
	schedA := serve.NewScheduler(serve.SchedulerOptions{Persist: pA})
	registerShape(t, schedA, newPersistShapeConfig(t))
	rec, replayed, err := schedA.SubmitKeyed(ctx, "shape", "bi", "key-durable", runOpts()...)
	if err != nil || replayed {
		t.Fatalf("cold keyed submit = (%v, replayed=%v)", err, replayed)
	}
	mustResult(t, rec.Live())
	if !pA.Flush() {
		t.Fatal("cold flush did not drain")
	}
	pA.Close()

	pB := openPersist(t, dir, nil)
	defer pB.Close()
	schedB := serve.NewScheduler(serve.SchedulerOptions{Persist: pB})
	registerShape(t, schedB, newPersistShapeConfig(t))
	rec2, replayed, err := schedB.SubmitKeyed(ctx, "shape", "bi", "key-durable", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || rec2.ID != rec.ID {
		t.Fatalf("warm keyed submit = (job %q, replayed=%v), want replay of %q", rec2.ID, replayed, rec.ID)
	}
	// And the replayed record still reads back its report.
	if st, ok := schedB.Job(rec.ID); !ok || st.IdemKey != "key-durable" {
		t.Fatalf("recovered record = (%+v, %v), want the keyed job", st, ok)
	}
}

// TestSubmitShedsWhenQueueFull: with one execution slot and a
// one-deep admission queue, the third concurrent submission is shed at
// the door — 503 with a Retry-After pacing hint, classified retryable.
func TestSubmitShedsWhenQueueFull(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{
		MaxConcurrent: 1,
		MaxQueue:      1,
	})
	registerShape(t, sched, newShapeConfig(t, 5*time.Millisecond))
	srv := serve.NewServer(sched, serve.ServerOptions{})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	ctx := context.Background()
	cl := serve.NewClient(hs.URL)

	req := serve.SubmitRequest{
		Workload:  "shape",
		Algorithm: "bi",
		Options:   &serve.JobOptions{Epsilon: fp(0.15), MaxLevel: intp(3), Seed: i64p(2), K: intp(3)},
	}
	// Fill the slot, then the queue.
	running, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "first job to occupy the slot", func() bool {
		st, err := cl.Status(ctx, running.JobID)
		return err == nil && st.Status == serve.StatusRunning
	})
	if _, err := cl.Submit(ctx, req); err != nil {
		t.Fatalf("queue-depth-1 submit should be accepted: %v", err)
	}
	waitUntil(t, 5*time.Second, "second job to queue", func() bool {
		return sched.QueueDepth() == 1
	})

	_, err = cl.Submit(ctx, req)
	if err == nil {
		t.Fatal("third submit was accepted; want a 503 shed")
	}
	var ae *serve.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("shed error = %v, want APIError 503", err)
	}
	if ae.RetryAfter <= 0 {
		t.Errorf("shed response carried no Retry-After hint")
	}
	if !serve.Retryable(err) {
		t.Errorf("overload shed must classify retryable")
	}
}

// TestQueuedSubmitShedAfterMaxWait: a job that queues for a slot
// longer than MaxQueueWait fails fast with the overload error instead
// of burning its deadline at the back of the line.
func TestQueuedSubmitShedAfterMaxWait(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{
		MaxConcurrent: 1,
		MaxQueueWait:  50 * time.Millisecond,
	})
	cfg := newShapeConfig(t, 0)
	gate := make(chan struct{})
	cfg.Model.(*shapeModel).gate = gate
	registerShape(t, sched, cfg)
	ctx := context.Background()

	// A long job holds the only slot: its valuations wait on the gate,
	// released once the queued job's outcome is checked.
	long, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer long.Cancel()
	defer close(gate)
	waitUntil(t, 5*time.Second, "long job to start", func() bool { return long.Started() })

	start := time.Now()
	queued, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Result(); err == nil || !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("queued job ended with %v, want ErrOverloaded after the wait bound", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("shed took %v; the wait bound is 50ms", waited)
	}
}

// TestDeadlineBudgetBoundsRun: TimeoutMS caps queue wait plus run —
// the engine never runs past the propagated budget.
func TestDeadlineBudgetBoundsRun(t *testing.T) {
	_, hs := newTestServer(t, 2*time.Millisecond)
	cl := serve.NewClient(hs.URL)
	ctx := context.Background()

	start := time.Now()
	// Unbudgeted full-space exact run on a slow model: far longer than
	// the 80ms budget, so only the budget can end it.
	st, err := cl.Submit(ctx, serve.SubmitRequest{
		Workload:  "shape",
		Algorithm: "exact",
		TimeoutMS: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if final.Status != serve.StatusFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("budgeted job ended (%s, %q), want failed on its deadline", final.Status, final.Error)
	}
	// The run stopped within a scheduling slack of the 80ms budget, not
	// at some engine-internal timeout.
	if elapsed > 2*time.Second {
		t.Fatalf("budgeted job terminated after %v; budget was 80ms", elapsed)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	id    int
	data  string
}

func readSSE(tb testing.TB, url string, lastEventID string) ([]sseEvent, int) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	var events []sseEvent
	cur := sseEvent{id: -1}
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(strings.TrimPrefix(line, "id: "), "%d", &cur.id)
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{id: -1}
		}
	}
	return events, resp.StatusCode
}

// TestSSEResumeWithLastEventID: the event stream numbers progress
// events; a reconnect with Last-Event-ID receives exactly the events
// after it — no duplicate, no gap — and a malformed header is a 400.
func TestSSEResumeWithLastEventID(t *testing.T) {
	_, hs := newTestServer(t, 0)
	cl := serve.NewClient(hs.URL)
	ctx := context.Background()

	// Full-space exact run: one progress event per explored level,
	// enough to resume from the middle.
	st, err := cl.Submit(ctx, serve.SubmitRequest{
		Workload:  "shape",
		Algorithm: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.JobID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eventsURL := hs.URL + "/v1/jobs/" + st.JobID + "/events"

	full, status := readSSE(t, eventsURL, "")
	if status != http.StatusOK {
		t.Fatalf("full stream: status %d", status)
	}
	var progress []sseEvent
	for _, ev := range full {
		if ev.event == "progress" {
			if ev.id != len(progress) {
				t.Fatalf("progress event %d carries id %d; ids must be the event's index", len(progress), ev.id)
			}
			progress = append(progress, ev)
		}
	}
	if len(progress) < 3 {
		t.Fatalf("run produced %d progress events; need >= 3 for a meaningful resume", len(progress))
	}
	if full[len(full)-1].event != "end" {
		t.Fatalf("stream did not close with an end event: %+v", full[len(full)-1])
	}

	// Resume after the second event: exactly the tail, in order.
	resumed, status := readSSE(t, eventsURL, "1")
	if status != http.StatusOK {
		t.Fatalf("resumed stream: status %d", status)
	}
	var tail []sseEvent
	for _, ev := range resumed {
		if ev.event == "progress" {
			tail = append(tail, ev)
		}
	}
	if len(tail) != len(progress)-2 {
		t.Fatalf("resume after id 1 delivered %d progress events, want %d", len(tail), len(progress)-2)
	}
	for i, ev := range tail {
		if want := progress[i+2]; ev.id != want.id || ev.data != want.data {
			t.Fatalf("resumed event %d = {id %d %q}, want {id %d %q}", i, ev.id, ev.data, want.id, want.data)
		}
	}

	if _, status := readSSE(t, eventsURL, "not-a-number"); status != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID: status %d, want 400", status)
	}
}

// flakyFront wraps a daemon handler and fails the first N submissions
// with a retryable status, recording every idempotency key it saw.
type flakyFront struct {
	inner http.Handler
	fail  atomic.Int32

	mu   sync.Mutex
	keys []string
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		blob, _ := io.ReadAll(r.Body)
		var req serve.SubmitRequest
		json.Unmarshal(blob, &req)
		f.mu.Lock()
		f.keys = append(f.keys, req.IdempotencyKey)
		f.mu.Unlock()
		if f.fail.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"injected: node briefly unavailable"}`, http.StatusServiceUnavailable)
			return
		}
		r.Body = io.NopCloser(strings.NewReader(string(blob)))
	}
	f.inner.ServeHTTP(w, r)
}

// TestClientRetryCarriesOneKey: with retries armed the client mints an
// idempotency key once and replays it on every attempt, so a retried
// submit can only ever resolve to one job.
func TestClientRetryCarriesOneKey(t *testing.T) {
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	registerShape(t, sched, newShapeConfig(t, 0))
	srv := serve.NewServer(sched, serve.ServerOptions{})
	front := &flakyFront{inner: srv}
	front.fail.Store(2)
	hs := httptest.NewServer(front)
	t.Cleanup(func() { hs.Close(); srv.Close() })

	cl := serve.NewClient(hs.URL).WithRetry(serve.RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	st, err := cl.Submit(context.Background(), serve.SubmitRequest{
		Workload:  "shape",
		Algorithm: "bi",
		Options:   &serve.JobOptions{Epsilon: fp(0.15), MaxLevel: intp(3), Seed: i64p(2), K: intp(3)},
	})
	if err != nil {
		t.Fatalf("submit through flaky front: %v", err)
	}
	front.mu.Lock()
	keys := append([]string(nil), front.keys...)
	front.mu.Unlock()
	if len(keys) != 3 {
		t.Fatalf("front saw %d attempts, want 3 (2 failures + success)", len(keys))
	}
	for i, k := range keys {
		if k == "" || k != keys[0] {
			t.Fatalf("attempt %d carried key %q; every retry must reuse %q", i, k, keys[0])
		}
	}
	if jobs := sched.Jobs(); len(jobs) != 1 || jobs[0].ID != st.JobID {
		t.Fatalf("scheduler holds %d jobs, want exactly the accepted one", len(jobs))
	}
}

// TestErrorClassification pins the shared retryable/terminal split the
// client, the proxy, and the chaos harness all route on.
func TestErrorClassification(t *testing.T) {
	retryable := []error{
		&serve.APIError{Status: http.StatusTooManyRequests},
		&serve.APIError{Status: http.StatusBadGateway},
		&serve.APIError{Status: http.StatusServiceUnavailable},
		io.ErrUnexpectedEOF,
		fmt.Errorf("wrapped: %w", serve.ErrOverloaded), // only via status in practice, but EOF-style wrapping must not panic
	}
	for _, err := range retryable[:4] {
		if !serve.Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	terminal := []error{
		nil,
		&serve.APIError{Status: http.StatusBadRequest},
		&serve.APIError{Status: http.StatusNotFound},
		&serve.APIError{Status: http.StatusGatewayTimeout}, // exhausted budget: retrying cannot help
		context.Canceled,
		context.DeadlineExceeded,
	}
	for _, err := range terminal {
		if serve.Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
	if hint, ok := serve.RetryAfterHint(&serve.APIError{Status: 503, RetryAfter: 2 * time.Second}); !ok || hint != 2*time.Second {
		t.Errorf("RetryAfterHint = (%v, %v), want (2s, true)", hint, ok)
	}

	// The policy stops immediately on a terminal error and retries a
	// retryable one up to MaxAttempts.
	p := serve.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	var calls int
	p.Do(context.Background(), func(context.Context) error {
		calls++
		return &serve.APIError{Status: http.StatusBadRequest}
	})
	if calls != 1 {
		t.Errorf("terminal error retried: %d attempts, want 1", calls)
	}
	calls = 0
	p.Do(context.Background(), func(context.Context) error {
		calls++
		return &serve.APIError{Status: http.StatusServiceUnavailable}
	})
	if calls != 3 {
		t.Errorf("retryable error: %d attempts, want MaxAttempts=3", calls)
	}
}
