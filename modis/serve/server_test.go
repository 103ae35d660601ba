package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/modis"
	"repro/modis/serve"
)

func newTestServer(tb testing.TB, sleep time.Duration) (*serve.Server, *httptest.Server) {
	tb.Helper()
	sched := serve.NewScheduler(serve.SchedulerOptions{})
	registerShape(tb, sched, newShapeConfig(tb, sleep))
	srv := serve.NewServer(sched, serve.ServerOptions{})
	hs := httptest.NewServer(srv)
	tb.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

func intp(v int) *int { return &v }

// TestDaemonEndToEnd is the wire acceptance test: submit over HTTP,
// stream SSE progress, fetch the report, and get the same skyline —
// and the same event sequence — as Engine.Run in-process.
func TestDaemonEndToEnd(t *testing.T) {
	ctx := context.Background()

	// In-process reference on an independent but identical config.
	var direct []modis.Event
	ref, err := modis.NewEngine(newShapeConfig(t, 0)).Run(ctx, "bi",
		append(runOpts(), modis.WithProgress(func(ev modis.Event) { direct = append(direct, ev) }))...)
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, 0)
	cl := serve.NewClient(hs.URL)

	if infos, err := cl.Workloads(ctx); err != nil || len(infos) != 1 || infos[0].Name != "shape" ||
		len(infos[0].Hash) != 64 || infos[0].Descriptor == nil || infos[0].Descriptor.Hash() != infos[0].Hash {
		t.Fatalf("workloads = (%+v, %v), want one self-consistent shape entry", infos, err)
	}
	if names, err := cl.Algorithms(ctx); err != nil || len(names) != 5 {
		t.Fatalf("algorithms = (%v, %v)", names, err)
	}

	st, err := cl.Submit(ctx, serve.SubmitRequest{
		Workload:  "shape",
		Algorithm: "bi",
		Options:   &serve.JobOptions{Epsilon: fp(0.15), MaxLevel: intp(3), Seed: i64p(2), K: intp(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.JobID == "" || st.Algorithm != "bi" || st.Workload != "shape" {
		t.Fatalf("accepted status malformed: %+v", st)
	}

	var streamed []modis.Event
	end, err := cl.Events(ctx, st.JobID, func(ev modis.Event) { streamed = append(streamed, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if end == nil || end.Status != serve.StatusDone {
		t.Fatalf("end event = %+v, want done", end)
	}
	if len(streamed) != len(direct) {
		t.Fatalf("SSE delivered %d events, in-process progress saw %d", len(streamed), len(direct))
	}
	for i := range direct {
		if streamed[i] != direct[i] {
			t.Fatalf("SSE event %d diverges: wire %+v in-process %+v", i, streamed[i], direct[i])
		}
	}

	final, err := cl.Status(ctx, st.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != serve.StatusDone || final.Report == nil {
		t.Fatalf("final status = %+v, want done with report", final)
	}
	if final.Report.JobID != st.JobID {
		t.Errorf("report JobID %q != job %q", final.Report.JobID, st.JobID)
	}
	wire, err := json.Marshal(final.Report.Skyline)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != skylineJSON(t, ref) {
		t.Errorf("wire skyline diverges from in-process run\n in-process: %s\n wire:       %s",
			skylineJSON(t, ref), wire)
	}
}

func fp(v float64) *float64 { return &v }
func i64p(v int64) *int64   { return &v }

func TestDaemonCancelMidSearch(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestServer(t, 2*time.Millisecond) // slow model, unbudgeted full space
	cl := serve.NewClient(hs.URL)
	st, err := cl.Submit(ctx, serve.SubmitRequest{Workload: "shape", Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	// Let it get into the search, then cancel and require prompt death.
	deadlineCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		got, err := cl.Status(deadlineCtx, st.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == serve.StatusRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cl.Cancel(deadlineCtx, st.JobID); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Wait(deadlineCtx, st.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != serve.StatusCancelled {
		t.Fatalf("status after cancel = %q (%s), want cancelled", got.Status, got.Error)
	}
	if !strings.Contains(got.Error, "context canceled") {
		t.Errorf("cancelled job error = %q", got.Error)
	}
}

func TestDaemonDeadlineExpiry(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestServer(t, 2*time.Millisecond)
	cl := serve.NewClient(hs.URL)
	st, err := cl.Submit(ctx, serve.SubmitRequest{Workload: "shape", Algorithm: "exact", TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Wait(ctx, st.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != serve.StatusFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("expired job = %q (%s), want failed with deadline error", got.Status, got.Error)
	}
}

func TestDaemonErrorMapping(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestServer(t, 0)
	cl := serve.NewClient(hs.URL)

	// Unknown algorithm → 400, body carrying the registry's message
	// verbatim (the known keys included).
	inProc := modis.NewEngine(newShapeConfig(t, 0))
	_, wantErr := inProc.Run(ctx, "annealing")
	_, err := cl.Submit(ctx, serve.SubmitRequest{Workload: "shape", Algorithm: "annealing"})
	if err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Errorf("daemon error %q must be HTTP 400 carrying %q", err, wantErr)
	}

	// Unknown workload → 404 naming the catalog.
	if _, err := cl.Submit(ctx, serve.SubmitRequest{Workload: "nope", Algorithm: "bi"}); err == nil ||
		!strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "shape") {
		t.Errorf("unknown workload error = %v", err)
	}

	// Invalid option → 400 with the option's own message.
	if _, err := cl.Submit(ctx, serve.SubmitRequest{
		Workload: "shape", Algorithm: "bi",
		Options: &serve.JobOptions{Epsilon: fp(-1)},
	}); err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "epsilon") {
		t.Errorf("invalid option error = %v", err)
	}

	// Options the wire does not carry → 400 naming the field: the
	// search without pruning is requested as "algorithm":"nobi", and a
	// node sizes a job's inference concurrency itself (-workers,
	// -parallel).
	for field, options := range map[string]string{
		"prune":       `{"prune":false}`,
		"parallelism": `{"parallelism":2}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"workload":"shape","algorithm":"bi","options":`+options+`}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), field) {
			t.Errorf("option %s: %d %s", options, resp.StatusCode, body)
		}
	}

	// Unknown job id → 404.
	if _, err := cl.Status(ctx, "job-unknown"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job error = %v", err)
	}
}

// TestDaemonConcurrentSubmits hammers one daemon over HTTP from many
// goroutines; run under -race in CI.
func TestDaemonConcurrentSubmits(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestServer(t, 0)
	cl := serve.NewClient(hs.URL)
	algos := []string{"apx", "bi", "nobi", "div", "exact", "bi", "apx", "nobi"}
	var wg sync.WaitGroup
	errs := make([]error, len(algos))
	for i, algo := range algos {
		wg.Add(1)
		go func(i int, algo string) {
			defer wg.Done()
			st, err := cl.Submit(ctx, serve.SubmitRequest{
				Workload: "shape", Algorithm: algo,
				Options: &serve.JobOptions{Epsilon: fp(0.15), MaxLevel: intp(3), Seed: i64p(2), K: intp(3)},
			})
			if err != nil {
				errs[i] = err
				return
			}
			got, err := cl.Wait(ctx, st.JobID, 5*time.Millisecond)
			if err == nil && got.Status != serve.StatusDone {
				err = &jobFailed{got}
			}
			errs[i] = err
		}(i, algo)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent submit %d (%s): %v", i, algos[i], err)
		}
	}
}

type jobFailed struct{ st *serve.JobStatus }

func (e *jobFailed) Error() string { return "job ended " + e.st.Status + ": " + e.st.Error }
