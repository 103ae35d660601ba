package proxy_test

// Black-box fleet tests: real serve.Server nodes behind httptest, a
// Proxy in front, the stock serve.Client as the caller — the proxy is
// transparent exactly when the client cannot tell it from a node.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fst"
	"repro/internal/table"
	"repro/modis"
	"repro/modis/proxy"
	"repro/modis/serve"
	"repro/modis/workload"
)

// shapeModel mirrors the serve package's test model: two opposing
// measures derived from the dataset shape, so results are a pure
// function of the state and byte-identical across nodes.
type shapeModel struct {
	space *fst.Space
	sleep time.Duration
}

func (m *shapeModel) Name() string { return "shape" }

func (m *shapeModel) Evaluate(d *table.Table) ([]float64, error) {
	if m.sleep > 0 {
		time.Sleep(m.sleep)
	}
	rows, cols := float64(d.NumRows()), float64(d.NumCols())
	uRows := float64(m.space.Universal.NumRows())
	uCols := float64(m.space.Universal.NumCols())
	return []float64{
		0.1 + 0.9*(rows/uRows)*(cols/uCols),
		0.1 + 0.9*(1-rows/uRows),
	}, nil
}

// newShapeConfig builds an independent deterministic config. variant
// perturbs the universal table, so different variants registered under
// different names hash to different shards.
func newShapeConfig(tb testing.TB, variant int, sleep time.Duration) *fst.Config {
	tb.Helper()
	u := table.New("D_U", table.Schema{
		{Name: "a", Kind: table.KindFloat},
		{Name: "b", Kind: table.KindFloat},
		{Name: "target", Kind: table.KindInt},
	})
	for i := 0; i < 24+variant; i++ {
		u.MustAppend(table.Row{
			table.Float(float64(i % 3)),
			table.Float(float64(i % 4)),
			table.Int(int64(i % 2)),
		})
	}
	sp := fst.NewSpace(u, "target", fst.SpaceConfig{MaxLiteralsPerAttr: 4})
	return &fst.Config{
		Space: sp,
		Model: &shapeModel{space: sp, sleep: sleep},
		Measures: []fst.Measure{
			{Name: "p0", Normalize: fst.Identity(1e-3)},
			{Name: "p1", Normalize: fst.Identity(1e-3)},
		},
	}
}

// submitReq is the canonical test submission: seeded, level-bounded,
// so a run is a pure function of the workload.
func submitReq(name string) serve.SubmitRequest {
	eps, lvl, k, seed := 0.15, 3, 3, int64(2)
	return serve.SubmitRequest{
		Workload:  name,
		Algorithm: "bi",
		Options:   &serve.JobOptions{Epsilon: &eps, MaxLevel: &lvl, K: &k, Seed: &seed},
	}
}

// node is one modisd-equivalent fleet member.
type node struct {
	sched *serve.Scheduler
	hs    *httptest.Server
}

// startFleet launches n nodes, each registering every workload named
// wl0..wl<variants-1> (variant i under name "wl<i>"), so any node can
// serve any workload and reroutes have somewhere to land.
func startFleet(tb testing.TB, n, variants int, sleep time.Duration) []*node {
	tb.Helper()
	fleet := make([]*node, n)
	for i := range fleet {
		sched := serve.NewScheduler(serve.SchedulerOptions{})
		for v := 0; v < variants; v++ {
			name := fmt.Sprintf("wl%d", v)
			cfg := newShapeConfig(tb, v, sleep)
			desc, err := workload.Describe(name, cfg)
			if err != nil {
				tb.Fatal(err)
			}
			if err := sched.Register(desc, cfg); err != nil {
				tb.Fatal(err)
			}
		}
		srv := serve.NewServer(sched, serve.ServerOptions{})
		hs := httptest.NewServer(srv)
		tb.Cleanup(hs.Close)
		fleet[i] = &node{sched: sched, hs: hs}
	}
	return fleet
}

// startProxy fronts the fleet with a Proxy (background sweeps off —
// tests drive CheckNow) and returns the proxy, its front URL, and a
// client speaking to it.
func startProxy(tb testing.TB, fleet []*node, adm proxy.AdmissionOptions) (*proxy.Proxy, string, *serve.Client) {
	tb.Helper()
	var addrs []string
	for _, n := range fleet {
		addrs = append(addrs, n.hs.URL)
	}
	p := proxy.New(proxy.Options{Nodes: addrs, HealthInterval: -1, Admission: adm})
	tb.Cleanup(p.Close)
	p.CheckNow(context.Background())
	hs := httptest.NewServer(p)
	tb.Cleanup(hs.Close)
	return p, hs.URL, serve.NewClient(hs.URL)
}

// jobsOn counts the jobs a node holds.
func jobsOn(tb testing.TB, n *node) int {
	tb.Helper()
	page, err := serve.NewClient(n.hs.URL).List(context.Background(), "", 0)
	if err != nil {
		tb.Fatal(err)
	}
	return len(page.Jobs)
}

// ownerOf finds the fleet node holding a job.
func ownerOf(tb testing.TB, fleet []*node, jobID string) *node {
	tb.Helper()
	for _, n := range fleet {
		if _, err := serve.NewClient(n.hs.URL).Status(context.Background(), jobID); err == nil {
			return n
		}
	}
	tb.Fatalf("no fleet node holds job %s", jobID)
	return nil
}

func waitDone(tb testing.TB, cl *serve.Client, jobID string) *serve.JobStatus {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, jobID, 5*time.Millisecond)
	if err != nil {
		tb.Fatal(err)
	}
	if st.Status != serve.StatusDone {
		tb.Fatalf("job %s ended %s: %s", jobID, st.Status, st.Error)
	}
	return st
}

func skylineJSON(tb testing.TB, rep *modis.Report) string {
	tb.Helper()
	if rep == nil {
		tb.Fatal("no report on a done job")
	}
	blob, err := json.Marshal(rep.Skyline)
	if err != nil {
		tb.Fatal(err)
	}
	return string(blob)
}

// TestProxyRoutingDeterminism: two proxies over permuted fleet lists
// send the same workload to the same node, and that node's advertised
// shard set (the /healthz identity) contains the workload's hash.
func TestProxyRoutingDeterminism(t *testing.T) {
	fleet := startFleet(t, 3, 2, 0)
	_, _, clA := startProxy(t, fleet, proxy.AdmissionOptions{})
	reversed := []*node{fleet[2], fleet[1], fleet[0]}
	_, _, clB := startProxy(t, reversed, proxy.AdmissionOptions{})
	ctx := context.Background()

	stA, err := clA.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clA, stA.JobID)
	stB, err := clB.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clB, stB.JobID)

	owner := ownerOf(t, fleet, stA.JobID)
	if got := ownerOf(t, fleet, stB.JobID); got != owner {
		t.Fatal("proxies over permuted node lists routed one workload to different nodes")
	}
	if got := jobsOn(t, owner); got != 2 {
		t.Errorf("owner holds %d jobs, want both submissions (2)", got)
	}
	for _, n := range fleet {
		if n != owner {
			if got := jobsOn(t, n); got != 0 {
				t.Errorf("non-owner holds %d jobs, want 0", got)
			}
		}
	}

	// The owner's node identity advertises the shard: wl0's descriptor
	// hash appears in its /healthz shard list.
	infos, err := clA.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hash := ""
	for _, info := range infos {
		if info.Name == "wl0" {
			hash = info.Hash
		}
	}
	if len(hash) != 64 {
		t.Fatalf("merged catalog has no wl0 hash: %+v", infos)
	}
	found := false
	for _, sh := range owner.sched.Shards() {
		if sh.Hash == hash && sh.Jobs >= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("owner's shard list %+v does not account for wl0 (%s)", owner.sched.Shards(), hash[:12])
	}
}

// TestProxySkylineMatchesDirect is the acceptance criterion: a job
// submitted through the proxy returns a byte-identical skyline to the
// same job submitted directly to the owning node.
func TestProxySkylineMatchesDirect(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	_, _, cl := startProxy(t, fleet, proxy.AdmissionOptions{})
	ctx := context.Background()

	st, err := cl.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	viaProxy := waitDone(t, cl, st.JobID)

	owner := ownerOf(t, fleet, st.JobID)
	direct := serve.NewClient(owner.hs.URL)
	st2, err := direct.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	viaDirect := waitDone(t, direct, st2.JobID)

	if p, d := skylineJSON(t, viaProxy.Report), skylineJSON(t, viaDirect.Report); p != d {
		t.Errorf("proxied skyline diverges from direct\n proxy:  %s\n direct: %s", p, d)
	}
}

// TestProxyRefusesUnknownOptions: the proxy refuses a submit body a
// node would refuse — 400 naming the field, no job started anywhere —
// instead of dropping the field and running a different search.
func TestProxyRefusesUnknownOptions(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	_, base, _ := startProxy(t, fleet, proxy.AdmissionOptions{})
	for field, options := range map[string]string{
		"prune":       `{"prune":false}`,
		"parallelism": `{"parallelism":2}`,
	} {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"workload":"wl0","algorithm":"bi","options":`+options+`}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := decodeStatus(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Errorf("option %s through the proxy: %d %s", options, resp.StatusCode, body)
		}
	}
	for i, n := range fleet {
		if got := jobsOn(t, n); got != 0 {
			t.Errorf("node %d holds %d jobs, want none", i, got)
		}
	}
}

// TestProxySSEPassThrough: the event stream read through the proxy is
// the same sequence, in the same order, as the stream read directly
// from the owning node (streams replay from the job's start, so a
// finished job still serves its full sequence).
func TestProxySSEPassThrough(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	_, _, cl := startProxy(t, fleet, proxy.AdmissionOptions{})
	ctx := context.Background()

	st, err := cl.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, st.JobID)
	owner := ownerOf(t, fleet, st.JobID)

	render := func(evs []modis.Event) []string {
		out := make([]string, len(evs))
		for i, ev := range evs {
			blob, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(blob)
		}
		return out
	}
	var proxied, directly []modis.Event
	if _, err := cl.Events(ctx, st.JobID, func(ev modis.Event) { proxied = append(proxied, ev) }); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.NewClient(owner.hs.URL).Events(ctx, st.JobID, func(ev modis.Event) { directly = append(directly, ev) }); err != nil {
		t.Fatal(err)
	}
	p, d := render(proxied), render(directly)
	if len(p) == 0 {
		t.Fatal("no events through the proxy")
	}
	if len(p) != len(d) {
		t.Fatalf("proxied stream has %d events, direct has %d", len(p), len(d))
	}
	for i := range p {
		if p[i] != d[i] {
			t.Fatalf("event %d differs through the proxy\n proxy:  %s\n direct: %s", i, p[i], d[i])
		}
	}
}

// TestProxySSEResume: a raw SSE subscriber resuming through the proxy
// with Last-Event-ID gets exactly what the owning node sends a direct
// resume — the events after that id, no replay from the start.
func TestProxySSEResume(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	_, front, cl := startProxy(t, fleet, proxy.AdmissionOptions{})
	ctx := context.Background()

	st, err := cl.Submit(ctx, serve.SubmitRequest{Workload: "wl0", Algorithm: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, st.JobID)
	owner := ownerOf(t, fleet, st.JobID)

	stream := func(base, lastID string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.JobID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events from %s: status %d: %s", base, resp.StatusCode, body)
		}
		return string(body)
	}
	if full := stream(owner.hs.URL, ""); !strings.Contains(full, "\nid: 2\n") {
		t.Fatalf("the run streamed fewer than 3 progress events; a mid-stream resume needs more:\n%s", full)
	}
	direct, proxied := stream(owner.hs.URL, "1"), stream(front, "1")
	if strings.Contains(proxied, "\nid: 0\n") || strings.Contains(proxied, "\nid: 1\n") {
		t.Fatalf("resume after id 1 through the proxy replayed from the start:\n%s", proxied)
	}
	if proxied != direct {
		t.Fatalf("resumed stream differs through the proxy\n proxy:\n%s\n direct:\n%s", proxied, direct)
	}
}

// TestProxyDeadNodeReroute: killing a workload's owning node and
// sweeping health reroutes the resubmission to a surviving node, where
// it completes.
func TestProxyDeadNodeReroute(t *testing.T) {
	fleet := startFleet(t, 2, 1, 0)
	p, front, cl := startProxy(t, fleet, proxy.AdmissionOptions{})
	ctx := context.Background()

	st, err := cl.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, st.JobID)
	owner := ownerOf(t, fleet, st.JobID)
	var survivor *node
	for _, n := range fleet {
		if n != owner {
			survivor = n
		}
	}

	owner.hs.Close()
	p.CheckNow(ctx)

	st2, err := cl.Submit(ctx, submitReq("wl0"))
	if err != nil {
		t.Fatalf("resubmission after owner death: %v", err)
	}
	waitDone(t, cl, st2.JobID)
	if got := jobsOn(t, survivor); got != 1 {
		t.Errorf("survivor holds %d jobs, want the rerouted one (1)", got)
	}

	// The proxy's own health view degrades but stays serving.
	resp, err := http.Get(front + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr proxy.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" {
		t.Errorf("proxy health %q with one node dead, want degraded", hr.Status)
	}
}

// TestProxyRateLimit: a tenant past its burst gets 429 with a
// Retry-After of at least one second, and the rejection names the
// throttle in its JSON body.
func TestProxyRateLimit(t *testing.T) {
	fleet := startFleet(t, 1, 1, 0)
	var addrs []string
	for _, n := range fleet {
		addrs = append(addrs, n.hs.URL)
	}
	p := proxy.New(proxy.Options{Nodes: addrs, HealthInterval: -1,
		Admission: proxy.AdmissionOptions{Rate: 0.001, Burst: 1}})
	t.Cleanup(p.Close)
	p.CheckNow(context.Background())
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	cl := serve.NewClient(front.URL)

	st, err := cl.Submit(context.Background(), submitReq("wl0"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, st.JobID)

	resp := postSubmit(t, front.URL, "wl0", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit past burst returned %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("429 body must carry a JSON error, got decode err %v, error %q", err, body.Error)
	}
}

// TestProxyTenantCaps: with one concurrent job per tenant, a tenant
// with a running job is rejected 429 while another tenant is admitted;
// the slot frees once the job finishes.
func TestProxyTenantCaps(t *testing.T) {
	fleet := startFleet(t, 1, 1, 500*time.Microsecond)
	var addrs []string
	for _, n := range fleet {
		addrs = append(addrs, n.hs.URL)
	}
	p := proxy.New(proxy.Options{Nodes: addrs, HealthInterval: -1,
		Admission: proxy.AdmissionOptions{MaxTenantJobs: 1}})
	t.Cleanup(p.Close)
	p.CheckNow(context.Background())
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	cl := serve.NewClient(front.URL)

	first := postSubmit(t, front.URL, "wl0", "alice")
	blob1, st1 := decodeStatus(t, first)
	if first.StatusCode != http.StatusAccepted || st1 == nil {
		t.Fatalf("first submit returned %d: %s", first.StatusCode, blob1)
	}

	second := postSubmit(t, front.URL, "wl0", "alice")
	io2, _ := decodeStatus(t, second)
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped tenant's submit returned %d (%s), want 429", second.StatusCode, io2)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	other := postSubmit(t, front.URL, "wl0", "bob")
	io3, st3 := decodeStatus(t, other)
	if other.StatusCode != http.StatusAccepted || st3 == nil {
		t.Fatalf("other tenant's submit returned %d (%s), want 202", other.StatusCode, io3)
	}

	// Once the jobs finish and the proxy's watcher releases the slots,
	// the capped tenant admits again.
	waitDone(t, cl, st1.JobID)
	waitDone(t, cl, st3.JobID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		retry := postSubmit(t, front.URL, "wl0", "alice")
		_, stR := decodeStatus(t, retry)
		if retry.StatusCode == http.StatusAccepted {
			waitDone(t, cl, stR.JobID)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant slot never released after its job finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// postSubmit fires a raw POST /v1/jobs so status codes and headers
// stay observable.
func postSubmit(tb testing.TB, base, workloadName, tenant string) *http.Response {
	tb.Helper()
	blob, err := json.Marshal(submitReq(workloadName))
	if err != nil {
		tb.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(blob))
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(proxy.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// decodeStatus drains a submit response, returning the raw body and
// (when parseable) the JobStatus.
func decodeStatus(tb testing.TB, resp *http.Response) (string, *serve.JobStatus) {
	tb.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tb.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return buf.String(), nil
	}
	return buf.String(), &st
}
