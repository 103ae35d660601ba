package proxy_test

// Fleet-resilience tests at the proxy layer: breaker states on
// /healthz, keyed submit failover to a ring sibling, shed responses
// passed through verbatim, and the proxy's own deadline-budget
// exhaustion answer.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/modis/proxy"
	"repro/modis/serve"
	"repro/modis/workload"
)

// TestProxyHealthzSurfacesBreakers: /healthz names each node's breaker
// state and the sweep configuration; a dead node reads open/degraded,
// and a recovered sweep closes it again.
func TestProxyHealthzSurfacesBreakers(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	p, front, _ := startProxy(t, fleet, proxy.AdmissionOptions{})

	var hr proxy.HealthResponse
	getHealth := func() proxy.HealthResponse {
		t.Helper()
		resp, err := http.Get(front + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}

	h := getHealth()
	if h.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", h.Status)
	}
	if h.SweepIntervalMS != 0 {
		t.Errorf("sweeps are off (-1); sweep_interval_ms = %d, want 0", h.SweepIntervalMS)
	}
	if h.ProbeTimeoutMS != 1000 {
		t.Errorf("probe_timeout_ms = %d, want the 1000 default", h.ProbeTimeoutMS)
	}
	for _, n := range h.Nodes {
		if n.Breaker != proxy.BreakerClosed || !n.Alive {
			t.Errorf("node %s = breaker %q alive %v, want closed/alive", n.Addr, n.Breaker, n.Alive)
		}
	}

	// One node dies; the sweep opens its breaker and degrades the fleet.
	fleet[0].hs.Close()
	p.CheckNow(context.Background())
	h = getHealth()
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q after a node death, want degraded", h.Status)
	}
	var open, closed int
	for _, n := range h.Nodes {
		switch n.Breaker {
		case proxy.BreakerOpen:
			open++
			if n.Alive {
				t.Errorf("open breaker on %s still reads alive", n.Addr)
			}
			if n.Error == "" {
				t.Errorf("open breaker on %s carries no error detail", n.Addr)
			}
		case proxy.BreakerClosed:
			closed++
		}
	}
	if open != 1 || closed != 1 {
		t.Fatalf("breakers after one death: %d open, %d closed; want 1/1", open, closed)
	}
}

// TestProxyKeyedSubmitFailover: a keyed submission whose shard owner
// is dead fails over to a ring sibling under the same key, and a
// client retry of the same key replays that job instead of double-
// running it.
func TestProxyKeyedSubmitFailover(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	_, _, cl := startProxy(t, fleet, proxy.AdmissionOptions{})
	ctx := context.Background()

	// Locate the shard owner with a scout job, then kill it.
	scout, err := cl.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, scout.JobID)
	owner := ownerOf(t, fleet, scout.JobID)
	var survivor *node
	for _, n := range fleet {
		if n != owner {
			survivor = n
		}
	}
	owner.hs.Close()

	// The keyed submit sees the dead owner first (its breaker is still
	// closed), burns the same-node retries, then fails over.
	req := submitReq("wl0")
	req.IdempotencyKey = "key-failover"
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("keyed submit with dead owner: %v", err)
	}
	final := waitDone(t, cl, st.JobID)
	if final.IdemKey != "key-failover" {
		t.Errorf("failover job carries key %q, want key-failover", final.IdemKey)
	}
	if got := ownerOf(t, fleet, st.JobID); got != survivor {
		t.Error("failover job did not land on the surviving node")
	}

	// A retry of the same key — through the proxy, after the failover —
	// replays the accepted job.
	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.JobID != st.JobID {
		t.Fatalf("same-key resubmit returned %q, want the failover job %q", st2.JobID, st.JobID)
	}
}

// TestProxyReplayAnswersOK: a same-key resubmit through the proxy
// answers the way a node does — 200 with Idempotency-Replayed: true and
// "replayed" in the body — where the first submit answered a plain 202.
func TestProxyReplayAnswersOK(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	_, front, _ := startProxy(t, fleet, proxy.AdmissionOptions{})
	req := submitReq("wl0")
	req.IdempotencyKey = "key-replay"
	blob, _ := json.Marshal(req)
	post := func() (*http.Response, *serve.JobStatus) {
		t.Helper()
		resp, err := http.Post(front+"/v1/jobs", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		_, st := decodeStatus(t, resp)
		if st == nil {
			t.Fatalf("submit returned %d with no job status", resp.StatusCode)
		}
		return resp, st
	}

	first, st1 := post()
	if first.StatusCode != http.StatusAccepted || first.Header.Get(serve.ReplayedHeader) != "" || st1.Replayed {
		t.Fatalf("fresh keyed submit: status %d, replay header %q, replayed %v; want 202, none, false",
			first.StatusCode, first.Header.Get(serve.ReplayedHeader), st1.Replayed)
	}
	second, st2 := post()
	if second.StatusCode != http.StatusOK || second.Header.Get(serve.ReplayedHeader) != "true" || !st2.Replayed {
		t.Fatalf("same-key resubmit: status %d, replay header %q, replayed %v; want 200, true, true",
			second.StatusCode, second.Header.Get(serve.ReplayedHeader), st2.Replayed)
	}
	if st2.JobID != st1.JobID {
		t.Fatalf("replay returned job %q, want the original %q", st2.JobID, st1.JobID)
	}
}

// TestProxyGeneratesIdempotencyKey: a bare submission (no key from the
// client) still travels under a proxy-minted key, so proxy-side
// retries are safe and the node's status reports the key.
func TestProxyGeneratesIdempotencyKey(t *testing.T) {
	fleet := startFleet(t, 1, 1, 0)
	_, _, cl := startProxy(t, fleet, proxy.AdmissionOptions{})
	st, err := cl.Submit(context.Background(), submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, cl, st.JobID)
	if final.IdemKey == "" {
		t.Fatal("proxied submission carries no idempotency key; proxy retries would be unsafe")
	}
}

// TestProxyShedPassesThrough: a node shedding on its bounded admission
// queue answers 503 + Retry-After, and the proxy forwards that answer
// verbatim instead of swallowing it.
func TestProxyShedPassesThrough(t *testing.T) {
	// One node with one slot and a one-deep queue, serving a slow model.
	sched := serve.NewScheduler(serve.SchedulerOptions{MaxConcurrent: 1, MaxQueue: 1})
	cfg := newShapeConfig(t, 0, 5*time.Millisecond)
	desc, err := workload.Describe("wl0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Register(desc, cfg); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(serve.NewServer(sched, serve.ServerOptions{}))
	t.Cleanup(hs.Close)
	p := proxy.New(proxy.Options{Nodes: []string{hs.URL}, HealthInterval: -1})
	t.Cleanup(p.Close)
	p.CheckNow(context.Background())
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	cl := serve.NewClient(front.URL)
	ctx := context.Background()

	running, err := cl.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitUntilProxy(t, func() bool {
		st, err := cl.Status(ctx, running.JobID)
		return err == nil && st.Status == serve.StatusRunning
	})
	if _, err := cl.Submit(ctx, submitReq("wl0")); err != nil {
		t.Fatalf("queueable submit rejected: %v", err)
	}
	waitUntilProxy(t, func() bool { return sched.QueueDepth() == 1 })

	// Raw POST so the passthrough headers are visible.
	blob, _ := json.Marshal(submitReq("wl0"))
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed through proxy: status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed through proxy lost the Retry-After header")
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("shed body %q does not name the overload", body)
	}
}

// TestProxyDeadlineBudgetExhausted: when every attempt fails and the
// budget runs dry mid-retry, the proxy answers 504 — the terminal
// deadline signal — rather than retrying past the deadline.
func TestProxyDeadlineBudgetExhausted(t *testing.T) {
	fleet := startFleet(t, 1, 1, 0)
	var addrs []string
	for _, n := range fleet {
		addrs = append(addrs, n.hs.URL)
	}
	// The 10ms budget is shorter than the 25ms pause before the
	// same-node retry, so it dies inside the retry loop, before the
	// candidate list runs out.
	p := proxy.New(proxy.Options{Nodes: addrs, HealthInterval: -1})
	t.Cleanup(p.Close)
	p.CheckNow(context.Background())
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)

	fleet[0].hs.Close()

	req := submitReq("wl0")
	req.TimeoutMS = 10
	blob, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("budget-exhausted submit: status %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline budget") {
		t.Errorf("504 body %q does not name the budget", body)
	}
	if serve.RetryableStatus(resp.StatusCode) {
		t.Error("504 must classify terminal — a retry would have no budget left")
	}
}

// waitUntilProxy polls cond within a deadline (local twin of the serve
// package's waitUntil).
func waitUntilProxy(tb testing.TB, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatal("timed out waiting for condition")
}
