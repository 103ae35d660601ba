package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/modis/serve"
)

// Options configure a Proxy. Nodes is the only required field.
type Options struct {
	// Nodes are the modisd base addresses ("host:port" or full URLs)
	// forming the routing ring. Order does not matter: two proxies
	// given permuted lists route identically.
	Nodes []string
	// HealthInterval is the background health/catalog sweep period
	// (0 = 2s; negative disables the background loop — tests drive
	// sweeps with CheckNow).
	HealthInterval time.Duration
	// Breaker configures the per-node circuit breakers. The zero value
	// has a 2s cooldown.
	Breaker BreakerOptions
	// Admission configures per-tenant rate limits and job caps.
	Admission AdmissionOptions
}

// nodeState is the proxy's view of one modisd.
type nodeState struct {
	br       *breaker
	inflight int
	errMsg   string
	identity *serve.NodeIdentity
	// ok/failed count exchanges with the node — the per-node error
	// rate /metrics exports.
	ok     int64
	failed int64
}

// Proxy routes the modis job API across a fleet of modisd nodes by
// consistent-hashing each workload's descriptor hash. Submissions pick
// the shard owner (spilling along the ring under bounded load or node
// death), job reads follow the job to the node that ran it, SSE event
// streams pass through unbuffered, and the workload/algorithm catalogs
// merge the fleet's. Admission control (429 + Retry-After) runs at
// submission, before any node is touched. Every exchange with a node
// except the SSE pipe is a call on that node's serve.Client.
type Proxy struct {
	opts       Options
	ring       *ring
	adm        *admission
	mux        *http.ServeMux
	sweepEvery time.Duration            // effective sweep period (0 = disabled)
	clients    map[string]*serve.Client // node → its client; fixed at New, read without mu

	mu      sync.Mutex
	nodes   map[string]*nodeState
	catalog map[string]serve.WorkloadInfo // workload name → info (merged)
	jobs    map[string]string             // job id → node that runs it

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// normalizeNode turns a configured node address into the base URL used
// both as ring identity and as request target.
func normalizeNode(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// New builds a Proxy over the node fleet. Nodes start presumed alive —
// the first health sweep (background, or CheckNow) corrects the view;
// a submission hitting a dead node fails over along the ring
// immediately anyway.
func New(opts Options) *Proxy {
	var normalized []string
	for _, n := range opts.Nodes {
		if nn := normalizeNode(n); nn != "" {
			normalized = append(normalized, nn)
		}
	}
	p := &Proxy{
		opts:    opts,
		ring:    newRing(normalized),
		adm:     newAdmission(opts.Admission),
		mux:     http.NewServeMux(),
		clients: map[string]*serve.Client{},
		nodes:   map[string]*nodeState{},
		catalog: map[string]serve.WorkloadInfo{},
		jobs:    map[string]string{},
	}
	for _, n := range p.ring.nodes {
		p.nodes[n] = &nodeState{br: newBreaker(opts.Breaker)}
		p.clients[n] = serve.NewClient(n)
	}
	p.ctx, p.stop = context.WithCancel(context.Background())

	p.mux.HandleFunc("POST /v1/jobs", p.handleSubmit)
	p.mux.HandleFunc("GET /v1/jobs", p.handleList)
	p.mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		p.forwardJob(w, r, (*serve.Client).Status)
	})
	p.mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		p.forwardJob(w, r, (*serve.Client).Cancel)
	})
	p.mux.HandleFunc("GET /v1/jobs/{id}/events", p.handleEvents)
	p.mux.HandleFunc("GET /v1/workloads", p.handleWorkloads)
	p.mux.HandleFunc("POST /v1/workloads/{name}/rows", p.handleAppendRows)
	p.mux.HandleFunc("GET /v1/algorithms", p.handleAlgorithms)
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)

	interval := opts.HealthInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	if interval > 0 {
		p.sweepEvery = interval
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			p.CheckNow(p.ctx)
			for {
				select {
				case <-p.ctx.Done():
					return
				case <-t.C:
					p.CheckNow(p.ctx)
				}
			}
		}()
	}
	return p
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Close stops the background sweeps and job watchers.
func (p *Proxy) Close() {
	p.stop()
	p.wg.Wait()
}

// CheckNow runs one synchronous health + catalog sweep: every node's
// /healthz feeds its circuit breaker (a sweep success closes the
// breaker immediately, cooldown or not, and refreshes the node's
// advertised identity), then the healthy nodes' workload catalogs
// merge into the routing table. The background loop calls this on its
// interval; tests call it directly for determinism.
func (p *Proxy) CheckNow(ctx context.Context) {
	for _, node := range p.ring.nodes {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		hr, err := p.clients[node].Health(pctx)
		cancel()
		p.mu.Lock()
		ns := p.nodes[node]
		if err != nil {
			ns.br.failure()
			ns.errMsg = err.Error()
		} else {
			ns.br.success()
			ns.errMsg = ""
			ns.identity = hr.Node
		}
		p.mu.Unlock()
	}
	p.refreshCatalog(ctx)
}

// probeTimeout bounds each per-node health probe within a sweep, so
// one hung node cannot stall the whole sweep.
const probeTimeout = time.Second

// aliveNodes lists the nodes whose circuit is closed, in ring order —
// the targets of fleet-wide reads, which should not burn a half-open
// probe slot on bulk traffic.
func (p *Proxy) aliveNodes() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var alive []string
	for _, n := range p.ring.nodes {
		if p.nodes[n].br.healthy() {
			alive = append(alive, n)
		}
	}
	return alive
}

// refreshCatalog merges the healthy nodes' workload catalogs. Nodes
// are visited in sorted order and the first binding of a name wins, so
// the merged view is deterministic in the fleet state.
func (p *Proxy) refreshCatalog(ctx context.Context) {
	merged := map[string]serve.WorkloadInfo{}
	for _, node := range p.aliveNodes() {
		infos, err := p.clients[node].Workloads(ctx)
		p.record(node, err)
		for _, info := range infos {
			if _, taken := merged[info.Name]; !taken {
				merged[info.Name] = info
			}
		}
	}
	p.mu.Lock()
	p.catalog = merged
	p.mu.Unlock()
}

// answered reports whether a failed node call carries the node's own
// non-2xx answer — as opposed to a transport failure, after which the
// node may never have seen the request.
func answered(err error) bool {
	var ae *serve.APIError
	return errors.As(err, &ae)
}

// record feeds one exchange's outcome into the node's breaker and its
// /metrics counters. A node that answered — 2xx or its own error
// status — is alive; only a transport failure counts against it. The
// caller's own cancellation or deadline says nothing about the node
// and is not recorded.
func (p *Proxy) record(node string, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ns := p.nodes[node]
	if err == nil || answered(err) {
		ns.br.success()
		ns.errMsg = ""
		ns.ok++
		return
	}
	ns.br.failure()
	ns.errMsg = err.Error()
	ns.failed++
}

// relayError answers with a failed node call: the node's own non-2xx
// answer goes back out as it came — same status, same {"error": …}
// body, same Retry-After — and a transport failure is a 502.
func relayError(w http.ResponseWriter, node string, err error) {
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		writeError(w, http.StatusBadGateway, fmt.Errorf("proxy: node %s unreachable: %w", node, err))
		return
	}
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(ae.RetryAfter)))
	}
	writeError(w, ae.Status, errors.New(ae.Msg))
}

// resolveWorkload maps a catalog name to its descriptor hash,
// refreshing the merged catalog once on a miss (a workload registered
// since the last sweep should not 404 until the next tick).
func (p *Proxy) resolveWorkload(ctx context.Context, name string) (string, bool) {
	p.mu.Lock()
	info, ok := p.catalog[name]
	p.mu.Unlock()
	if ok {
		return info.Hash, true
	}
	p.refreshCatalog(ctx)
	p.mu.Lock()
	info, ok = p.catalog[name]
	p.mu.Unlock()
	return info.Hash, ok
}

// pick chooses the serving node for a shard hash: ring candidates,
// breaker willing, bounded load. allow claims the half-open probe slot
// when it fires, so the submission routed to a recovering node IS its
// probe — the outcome is reported back through record like any other
// exchange.
func (p *Proxy) pick(hash string) string {
	p.mu.Lock()
	brs := make(map[string]*breaker, len(p.nodes))
	load := make(map[string]int, len(p.nodes))
	for n, ns := range p.nodes {
		brs[n] = ns.br
		load[n] = ns.inflight
	}
	p.mu.Unlock()
	// boundedPick asks the alive predicate more than once per node;
	// memoize allow so one pick claims at most one probe per breaker,
	// and release the probes of nodes that were allowed but not chosen
	// (bounded load can skip them), since no outcome will be reported.
	decided := map[string]bool{}
	allow := func(n string) bool {
		v, ok := decided[n]
		if !ok {
			v = brs[n].allow()
			decided[n] = v
		}
		return v
	}
	picked := p.ring.boundedPick(hash, allow, func(n string) int { return load[n] })
	for n, allowed := range decided {
		if allowed && n != picked {
			brs[n].releaseProbe()
		}
	}
	return picked
}

func (p *Proxy) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Decode as strictly as a node does: a field the node would refuse
	// is refused here too, not dropped on the way to the node.
	var req serve.SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("proxy: malformed submit request: %w", err))
		return
	}

	// TimeoutMS is the request's whole deadline budget, counted from
	// arrival: ctx carries it, and the node client's Submit forwards
	// only what remains of it to each node tried.
	ctx := r.Context()
	budget := time.Duration(req.TimeoutMS) * time.Millisecond
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	release, retryAfter, err := p.adm.admit(r.Header.Get(TenantHeader))
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}

	// Every proxied submit travels under an idempotency key — the
	// client's when it sent one (body or header), a proxy-generated one
	// otherwise — so the retries below can never double-run a job the
	// node had already accepted when the response was lost.
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = r.Header.Get(serve.IdempotencyHeader)
	}
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = serve.NewIdempotencyKey()
	}

	hash, ok := p.resolveWorkload(r.Context(), req.Workload)
	if !ok {
		release()
		writeError(w, http.StatusNotFound,
			fmt.Errorf("proxy: unknown workload %q (fleet serves: %s)", req.Workload, strings.Join(p.workloadNames(), ", ")))
		return
	}

	// Forward to the shard owner; a transport failure there (after one
	// same-node retry) trips its breaker and sends the submission to the
	// next ring candidate under the same key.
	tried := map[string]bool{}
	for {
		node := p.pick(hash)
		if node == "" || tried[node] {
			release()
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("proxy: no alive node for workload %q", req.Workload))
			return
		}
		tried[node] = true

		st, err := p.submitTo(ctx, node, req)
		p.record(node, err)
		switch {
		case err == nil:
			p.mu.Lock()
			p.jobs[st.JobID] = node
			p.nodes[node].inflight++
			p.mu.Unlock()
			p.wg.Add(1)
			go p.watch(st.JobID, node, release)
			status := http.StatusAccepted
			if st.Replayed {
				w.Header().Set(serve.ReplayedHeader, "true")
				status = http.StatusOK
			}
			writeJSON(w, status, st)
			return
		case r.Context().Err() != nil:
			release()
			return // the client went away; nothing to answer
		case ctx.Err() != nil:
			release()
			writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("proxy: deadline budget (%s) exhausted before the submission reached a node", budget))
			return
		case answered(err):
			// The node's rejection (bad algorithm, invalid options,
			// draining, shedding) passes through and is never retried.
			release()
			relayError(w, node, err)
			return
		}
	}
}

// sameNodeRetryPause spaces the one same-node retry of a submission.
const sameNodeRetryPause = 25 * time.Millisecond

// submitTo sends a submission to node, retrying once on the same node
// after a transport failure: the idempotency key dedupes there even
// when the lost response had been an acceptance, whereas a different
// node cannot see this one's ledger.
func (p *Proxy) submitTo(ctx context.Context, node string, req serve.SubmitRequest) (*serve.JobStatus, error) {
	st, err := p.clients[node].Submit(ctx, req)
	if err == nil || answered(err) || ctx.Err() != nil {
		return st, err
	}
	select {
	case <-time.After(sameNodeRetryPause):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.clients[node].Submit(ctx, req)
}

// watch follows the job on its node until it is terminal, then frees
// the admission slot and the node's in-flight count.
func (p *Proxy) watch(jobID, node string, release func()) {
	defer p.wg.Done()
	defer release()
	defer func() {
		p.mu.Lock()
		if ns, ok := p.nodes[node]; ok && ns.inflight > 0 {
			ns.inflight--
		}
		p.mu.Unlock()
	}()
	_, err := p.clients[node].Wait(p.ctx, jobID, 50*time.Millisecond)
	p.record(node, err)
}

// nodeForJob locates the node serving a job id: the submit-time record
// first, then a probe of the alive fleet (jobs submitted around the
// proxy, or before a proxy restart, are still reachable through it).
func (p *Proxy) nodeForJob(ctx context.Context, jobID string) (string, bool) {
	p.mu.Lock()
	node, ok := p.jobs[jobID]
	p.mu.Unlock()
	if ok {
		return node, true
	}
	for _, n := range p.aliveNodes() {
		_, err := p.clients[n].Status(ctx, jobID)
		p.record(n, err)
		if err == nil {
			p.mu.Lock()
			p.jobs[jobID] = n
			p.mu.Unlock()
			return n, true
		}
	}
	return "", false
}

// forwardJob answers a job read or cancel with call on the node that
// runs the job.
func (p *Proxy) forwardJob(w http.ResponseWriter, r *http.Request,
	call func(*serve.Client, context.Context, string) (*serve.JobStatus, error)) {
	id := r.PathValue("id")
	node, ok := p.nodeForJob(r.Context(), id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("proxy: unknown job %q", id))
		return
	}
	st, err := call(p.clients[node], r.Context(), id)
	p.record(node, err)
	if err != nil {
		relayError(w, node, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the owning node's SSE stream through
// unbuffered: each chunk read from the node is written and flushed
// immediately, so proxied subscribers observe the same events in the
// same order as direct ones. The subscriber's Last-Event-ID travels
// on, so a resumed stream resumes at the node too.
func (p *Proxy) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, ok := p.nodeForJob(r.Context(), id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("proxy: unknown job %q", id))
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("proxy: response writer cannot stream"))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		req.Header.Set("Last-Event-ID", v)
	}
	resp, err := http.DefaultClient.Do(req)
	p.record(node, err)
	if err != nil {
		relayError(w, node, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(resp.StatusCode)
	fl.Flush()
	buf := make([]byte, 8192)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleList aggregates the alive nodes' job listings into one page
// (pagination cursors are node-local, so the proxy serves the merged
// full listing; page against nodes directly for cursor semantics).
func (p *Proxy) handleList(w http.ResponseWriter, r *http.Request) {
	out := serve.JobsPageResponse{Jobs: []*serve.JobStatus{}}
	for _, node := range p.aliveNodes() {
		page, err := p.clients[node].List(r.Context(), "", 0)
		p.record(node, err)
		if err == nil {
			out.Jobs = append(out.Jobs, page.Jobs...)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (p *Proxy) workloadNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.catalog))
	for name := range p.catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handleWorkloads serves the merged fleet catalog in the same shape a
// single node does, so serve.Client works against the proxy unchanged.
func (p *Proxy) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	infos := make([]serve.WorkloadInfo, 0, len(p.catalog))
	for _, info := range p.catalog {
		infos = append(infos, info)
	}
	p.mu.Unlock()
	if len(infos) == 0 {
		p.refreshCatalog(r.Context())
		p.mu.Lock()
		for _, info := range p.catalog {
			infos = append(infos, info)
		}
		p.mu.Unlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

// handleAppendRows forwards a row-append batch to the workload's ring
// owner. Appends route strictly to the owner — never spilled under load,
// never failed over — because a batch landing on a different node
// would fork the shard's table version history; and they are forwarded
// exactly once — never retried — because an append is not idempotent:
// a lost response leaves the committed/uncommitted question to the
// caller, who can compare the catalog's table_version. A dead owner is
// an explicit 503, not a silent reroute.
func (p *Proxy) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req serve.AppendRowsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("proxy: malformed append request: %w", err))
		return
	}
	hash, ok := p.resolveWorkload(r.Context(), name)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("proxy: unknown workload %q (fleet serves: %s)", name, strings.Join(p.workloadNames(), ", ")))
		return
	}
	node := p.ring.owner(hash)
	if node == "" {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("proxy: no node for workload %q", name))
		return
	}
	p.mu.Lock()
	ns := p.nodes[node]
	p.mu.Unlock()
	if ns == nil || !ns.br.allow() {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("proxy: workload %q owner %s is unavailable; appends do not fail over", name, node))
		return
	}
	out, err := p.clients[node].AppendRows(r.Context(), name, req)
	p.record(node, err)
	if err != nil {
		relayError(w, node, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (p *Proxy) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	for _, node := range p.aliveNodes() {
		names, err := p.clients[node].Algorithms(r.Context())
		p.record(node, err)
		if err == nil {
			writeJSON(w, http.StatusOK, names)
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("proxy: no alive node"))
}

// NodeHealth is the proxy's healthz view of one fleet member. Alive
// means the node's circuit is not open (closed, or half-open probing);
// Breaker is the circuit's exact position.
type NodeHealth struct {
	Addr     string              `json:"addr"`
	Alive    bool                `json:"alive"`
	Breaker  BreakerState        `json:"breaker"`
	Inflight int                 `json:"inflight"`
	Error    string              `json:"error,omitempty"`
	Node     *serve.NodeIdentity `json:"node,omitempty"`
}

// HealthResponse is the proxy's healthz body: "ok" with every node
// alive, "degraded" with some dead, "down" with none alive. It also
// surfaces the sweep configuration operators tune — the background
// health-sweep period (0 = disabled) and the per-node probe timeout.
type HealthResponse struct {
	Status          string       `json:"status"`
	SweepIntervalMS int64        `json:"sweep_interval_ms"`
	ProbeTimeoutMS  int64        `json:"probe_timeout_ms"`
	Nodes           []NodeHealth `json:"nodes"`
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	resp := HealthResponse{
		Status:          "ok",
		SweepIntervalMS: p.sweepEvery.Milliseconds(),
		ProbeTimeoutMS:  probeTimeout.Milliseconds(),
	}
	aliveCount := 0
	for _, node := range p.ring.nodes {
		ns := p.nodes[node]
		state := ns.br.currentState()
		alive := state != BreakerOpen
		if alive {
			aliveCount++
		}
		resp.Nodes = append(resp.Nodes, NodeHealth{
			Addr: node, Alive: alive, Breaker: state, Inflight: ns.inflight, Error: ns.errMsg, Node: ns.identity,
		})
	}
	p.mu.Unlock()
	switch {
	case aliveCount == 0:
		resp.Status = "down"
	case aliveCount < len(resp.Nodes):
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the proxy's own Prometheus text exposition:
// the fleet view — per-node liveness, breaker position, in-flight
// jobs, exchange counters — plus how many shards each node advertises.
// Per-shard serving series (latency quantiles, memo hits, pool time)
// live on the nodes' own /metrics; the proxy's /healthz lists their
// addresses.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mw := metrics.NewWriter()
	p.mu.Lock()
	for _, node := range p.ring.nodes {
		ns := p.nodes[node]
		labels := []metrics.Label{{Name: "node", Value: node}}
		state := ns.br.currentState()
		up := 0.0
		if state != BreakerOpen {
			up = 1
		}
		mw.Header("modisproxy_node_up", "1 while the node's circuit is not open.", "gauge")
		mw.Sample("modisproxy_node_up", labels, up)
		mw.Header("modisproxy_node_breaker_state", "Circuit position: 0 closed, 1 half-open, 2 open.", "gauge")
		mw.Sample("modisproxy_node_breaker_state", labels, float64(breakerStateValue(state)))
		mw.Header("modisproxy_node_inflight", "Jobs this proxy has in flight on the node.", "gauge")
		mw.Sample("modisproxy_node_inflight", labels, float64(ns.inflight))
		mw.Header("modisproxy_node_exchanges_total", "Exchanges with the node by outcome.", "counter")
		okLabels := append(append([]metrics.Label(nil), labels...), metrics.Label{Name: "outcome", Value: "ok"})
		mw.Sample("modisproxy_node_exchanges_total", okLabels, float64(ns.ok))
		failLabels := append(append([]metrics.Label(nil), labels...), metrics.Label{Name: "outcome", Value: "failed"})
		mw.Sample("modisproxy_node_exchanges_total", failLabels, float64(ns.failed))
		if ns.identity != nil {
			mw.Header("modisproxy_node_shards", "Workload shards the node advertises.", "gauge")
			mw.Sample("modisproxy_node_shards", labels, float64(len(ns.identity.Shards)))
		}
	}
	routed := len(p.jobs)
	p.mu.Unlock()
	mw.Header("modisproxy_jobs_routed", "Job ids this proxy can currently route reads for.", "gauge")
	mw.Sample("modisproxy_jobs_routed", nil, float64(routed))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(mw.Bytes())
}

// breakerStateValue maps the circuit position onto the stable gauge
// encoding /metrics exports.
func breakerStateValue(s BreakerState) int {
	switch s {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	default:
		return 0
	}
}

// retryAfterSeconds renders a wait as the Retry-After integer: ceiling
// seconds, at least 1 — a client honoring it never retries early.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
