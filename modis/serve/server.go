package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/table"
	"repro/modis"
)

// SubmitRequest is the wire form of one job submission (POST /v1/jobs).
type SubmitRequest struct {
	// Workload names a configuration from the server's catalog.
	Workload string `json:"workload"`
	// Algorithm is an algorithm key ("apx", "bi", "nobi", "div",
	// "exact"), matched case-insensitively.
	Algorithm string `json:"algorithm"`
	// Options tune the run; absent fields keep engine defaults.
	Options *JobOptions `json:"options,omitempty"`
	// TimeoutMS is the request's remaining deadline budget: the job is
	// cancelled with context.DeadlineExceeded once it has spent this
	// long queued plus running on the node. Each forwarding hop (proxy,
	// retrying client) rewrites it to what is left of the original
	// budget before sending. 0 = none.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey, when non-empty, names this logical submission: a
	// resubmission with the same key — a client retry after a transport
	// failure, a proxy failover — returns the already-accepted job
	// (replayed, 200) instead of running a second search, across node
	// restarts. The Idempotency-Key header fills this field when the
	// body leaves it empty.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// IdempotencyHeader is the HTTP header equivalent of
// SubmitRequest.IdempotencyKey (header wins only when the body field
// is empty).
const IdempotencyHeader = "Idempotency-Key"

// ReplayedHeader marks a submit response that replayed an existing job
// for a repeated idempotency key ("true") instead of accepting a new
// one.
const ReplayedHeader = "Idempotency-Replayed"

// JobOptions mirrors the engine's search options field by field.
// Pointer fields distinguish "absent, keep the default" from genuine
// zero values (alpha 0, decisive measure 0). The search without
// correlation-based pruning is an algorithm of its own: submit
// "algorithm":"nobi". There is no parallelism field: a node runs every
// job's exact inferences on its shard's pool queue, sized by modisd's
// -workers and -parallel.
type JobOptions struct {
	Budget   *int     `json:"budget,omitempty"`
	Epsilon  *float64 `json:"epsilon,omitempty"`
	MaxLevel *int     `json:"max_level,omitempty"`
	Decisive *int     `json:"decisive,omitempty"`
	Theta    *float64 `json:"theta,omitempty"`
	K        *int     `json:"k,omitempty"`
	Alpha    *float64 `json:"alpha,omitempty"`
	Seed     *int64   `json:"seed,omitempty"`
}

// toOptions maps the wire options onto engine options; validation
// stays with the options themselves so wire and in-process callers get
// identical errors.
func (o *JobOptions) toOptions() []modis.Option {
	if o == nil {
		return nil
	}
	var opts []modis.Option
	if o.Budget != nil {
		opts = append(opts, modis.WithBudget(*o.Budget))
	}
	if o.Epsilon != nil {
		opts = append(opts, modis.WithEpsilon(*o.Epsilon))
	}
	if o.MaxLevel != nil {
		opts = append(opts, modis.WithMaxLevel(*o.MaxLevel))
	}
	if o.Decisive != nil {
		opts = append(opts, modis.WithDecisive(*o.Decisive))
	}
	if o.Theta != nil {
		opts = append(opts, modis.WithTheta(*o.Theta))
	}
	if o.K != nil {
		opts = append(opts, modis.WithK(*o.K))
	}
	if o.Alpha != nil {
		opts = append(opts, modis.WithAlpha(*o.Alpha))
	}
	if o.Seed != nil {
		opts = append(opts, modis.WithSeed(*o.Seed))
	}
	return opts
}

// Job states reported over the wire.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// JobStatus is the wire form of one job's state (GET /v1/jobs/{id},
// the job listing, and submit responses).
type JobStatus struct {
	JobID     string `json:"job_id"`
	Workload  string `json:"workload,omitempty"`
	Algorithm string `json:"algorithm"`
	// IdemKey is the idempotency key the job was submitted under, when
	// it carried one.
	IdemKey string `json:"idempotency_key,omitempty"`
	Status  string `json:"status"`
	// Error carries the terminal error of a failed or cancelled job.
	Error string `json:"error,omitempty"`
	// Progress is the most recent progress event of a running job.
	Progress *modis.Event `json:"progress,omitempty"`
	// Report is the result of a done job.
	Report *modis.Report `json:"report,omitempty"`
	// Replayed marks a submit response that answered a repeated
	// idempotency key with the already-accepted job (the body twin of
	// the Idempotency-Replayed header).
	Replayed bool `json:"replayed,omitempty"`
}

// statusOf snapshots a job record into its wire form, carrying a done
// job's report only when withReport is set — the listing and the event
// stream's end event are summaries, so they never read one. Archived
// records resolve their status from the ledger state and their report
// from the persistence store; a degraded disk degrades to a report-less
// status, never an error.
func (s *Scheduler) statusOf(rec *JobRecord, withReport bool) *JobStatus {
	st := &JobStatus{
		JobID:     rec.ID,
		Workload:  rec.Workload,
		Algorithm: rec.Algorithm,
		IdemKey:   rec.IdemKey,
	}
	job, arch := rec.snapshot()
	if arch != nil {
		st.Status = arch.status
		st.Error = arch.errMsg
		if withReport && arch.hasReport && s.opts.Persist != nil {
			if rep, ok := s.opts.Persist.ReadReport(rec.ID); ok {
				st.Report = rep
			}
		}
		return st
	}
	select {
	case <-job.Done():
		rep, err := job.Result()
		switch {
		case err == nil:
			st.Status = StatusDone
			if withReport {
				st.Report = rep
			}
		case errors.Is(err, context.Canceled):
			st.Status = StatusCancelled
			st.Error = err.Error()
		default:
			st.Status = StatusFailed
			st.Error = err.Error()
		}
	default:
		if job.Started() {
			st.Status = StatusRunning
		} else {
			st.Status = StatusQueued
		}
		if ev, ok := job.LastEvent(); ok {
			st.Progress = &ev
		}
	}
	return st
}

// Server exposes a Scheduler and a catalog of named workloads over
// HTTP:
//
//	POST   /v1/jobs             submit (SubmitRequest → JobStatus, 202)
//	GET    /v1/jobs             list accepted jobs (paginated: limit + cursor)
//	GET    /v1/jobs/{id}        status + report once done
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events progress as server-sent events
//	GET    /v1/workloads        workload catalog
//	POST   /v1/workloads/{name}/rows append rows (AppendRowsRequest → AppendResponse)
//	GET    /v1/algorithms       algorithm keys
//	GET    /healthz             readiness
//	GET    /metrics             Prometheus text exposition
//
// Errors are JSON bodies {"error": "..."}: 400 for malformed requests,
// unknown algorithms (the body carries the engine's known-keys
// message verbatim) and invalid options, 404 for unknown workloads and
// jobs, 503 while draining. Jobs live on the server's own context, not
// the submitting request's, so they survive their submitter
// disconnecting; Close cancels them all.
type Server struct {
	sched *Scheduler
	opts  ServerOptions
	mux   *http.ServeMux
	ctx   context.Context
	stop  context.CancelFunc
}

// ServerOptions carry the node identity a Server advertises on
// /healthz — what the proxy's fleet view is built from. The zero value
// is fine for single-node serving.
type ServerOptions struct {
	// Advertise is the address peers should reach this node on
	// (host:port), echoed verbatim.
	Advertise string
}

// NewServer builds a Server over a scheduler; the workload catalog is
// the scheduler's registry, read live, so workloads registered after
// the server starts appear without a restart.
func NewServer(sched *Scheduler, opts ServerOptions) *Server {
	s := &Server{
		sched: sched,
		opts:  opts,
		mux:   http.NewServeMux(),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/workloads/{name}/rows", s.handleAppend)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every job submitted through this server (their base
// context is the server's). Call after draining when shutting down
// hard.
func (s *Server) Close() { s.stop() }

// writeSchedulerError answers a submit or append the scheduler refused.
// Draining and overload are the retryable failures (503, overload with
// a one-second Retry-After pacing hint); an unknown workload is
// addressed to the wrong node (404, the proxy's reroute cue);
// everything else — unknown algorithm (the engine's typed error,
// known keys in the message), invalid options or rows — is the
// client's (400).
func writeSchedulerError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWorkload):
		status = http.StatusNotFound
	}
	writeError(w, status, err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed submit request: %w", err))
		return
	}
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = r.Header.Get(IdempotencyHeader)
	}
	// TimeoutMS bounds the job's whole life on the node — admission-queue
	// wait included, so a request never runs past its propagated
	// deadline budget at the engine.
	ctx := s.ctx
	var cancel context.CancelFunc
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	rec, replayed, err := s.sched.SubmitKeyed(ctx, req.Workload, req.Algorithm, req.IdempotencyKey, req.Options.toOptions()...)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		writeSchedulerError(w, err)
		return
	}
	if cancel != nil {
		if replayed {
			// The replayed job runs on its original deadline; this
			// retry's budget only covered getting the answer back.
			cancel()
		} else {
			job := rec.Live()
			go func() {
				<-job.Done()
				cancel()
			}()
		}
	}
	// A fresh acceptance is 202; a replay answers 200 — the submission
	// was already accepted, possibly long ago — and says so in a header
	// and in the body, so retry layers can tell dedup from double-run.
	st := s.sched.statusOf(rec, true)
	st.Replayed = replayed
	status := http.StatusAccepted
	if replayed {
		w.Header().Set(ReplayedHeader, "true")
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

// JobsPageResponse is the paginated envelope of GET /v1/jobs.
// NextCursor, when non-empty, is the cursor query value of the next
// page.
type JobsPageResponse struct {
	Jobs       []*JobStatus `json:"jobs"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// handleList answers GET /v1/jobs?limit=N&cursor=<job id>: jobs in
// submission order, limit per page (default all), cursor the last id
// of the previous page. Keeping the page a summary — no reports —
// keeps listing a spilled multi-thousand-job ledger cheap.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed limit %q", v))
			return
		}
		limit = n
	}
	recs, next := s.sched.JobsPage(r.URL.Query().Get("cursor"), limit)
	out := make([]*JobStatus, 0, len(recs))
	for _, rec := range recs {
		out = append(out, s.sched.statusOf(rec, false)) // a summary: fetch the job for its report
	}
	writeJSON(w, http.StatusOK, JobsPageResponse{Jobs: out, NextCursor: next})
}

func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*JobRecord, bool) {
	id := r.PathValue("id")
	rec, ok := s.sched.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return nil, false
	}
	return rec, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.resolve(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.sched.statusOf(rec, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.resolve(w, r)
	if !ok {
		return
	}
	rec.Cancel() // archived records are already terminal; Cancel no-ops
	// Report the post-cancel state: a job cancelled here observes the
	// cancellation at valuation granularity, so Done may lag a moment.
	writeJSON(w, http.StatusOK, s.sched.statusOf(rec, true))
}

// handleEvents streams the job's progress events as server-sent
// events: one "progress" event per modis.Event — the same events, in
// the same order, an in-process WithProgress callback observes — and a
// final "end" event carrying the terminal JobStatus. Every progress
// event carries its stable index as the SSE id, and a reconnecting
// client's Last-Event-ID header resumes the stream right after the
// last event it saw instead of replaying from the start.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.resolve(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed Last-Event-ID %q", v))
			return
		}
		from = n + 1
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	if job := rec.Live(); job != nil {
		id := from
		for ev := range job.EventsFrom(r.Context(), from) {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: progress\nid: %d\ndata: %s\n\n", id, data); err != nil {
				return
			}
			id++
			fl.Flush()
		}
	}
	// The stream drained: either the job finished (or was archived
	// long before this request) or the client went away. Send the
	// terminal status when there is one.
	select {
	case <-rec.Done():
		// The report travels over GET /v1/jobs/{id}.
		data, err := json.Marshal(s.sched.statusOf(rec, false))
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: end\ndata: %s\n\n", data)
		fl.Flush()
	default:
	}
}

// HealthResponse is the healthz body. Status is "ok", or "degraded"
// when persistence is enabled but failing — the daemon still serves
// (state lives in memory); operators watch this field. Node carries
// the identity the proxy routes on: who this node is and which
// workload shards it holds.
type HealthResponse struct {
	Status      string             `json:"status"`
	Node        *NodeIdentity      `json:"node,omitempty"`
	Persistence *PersistenceHealth `json:"persistence,omitempty"`
}

// NodeIdentity is the healthz self-description of one daemon.
type NodeIdentity struct {
	// Advertise is the address peers reach this node on (empty when
	// the daemon was not told one).
	Advertise string `json:"advertise,omitempty"`
	// StateDir is the persistence root ("" when serving in-memory).
	StateDir string `json:"state_dir,omitempty"`
	// Shards lists the workload shards this node holds, by descriptor
	// hash.
	Shards []ShardInfo `json:"shards"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	node := &NodeIdentity{Advertise: s.opts.Advertise, Shards: s.sched.Shards()}
	if p := s.sched.opts.Persist; p != nil {
		node.StateDir = p.opts.Dir
		h := p.Health()
		resp.Persistence = &h
		if !h.Healthy {
			resp.Status = "degraded"
		}
	}
	resp.Node = node
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the node's Prometheus text exposition — the
// per-shard and node-global serving series documented in
// docs/serving.md.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mw := metrics.NewWriter()
	s.sched.WriteMetrics(mw)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(mw.Bytes())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.WorkloadInfos())
}

// handleAppend commits a row batch to the named workload's shard:
// rows are coerced against the universal schema, in-flight runs drain
// behind the shard's append gate, and the response reports the new
// table version plus what the versioned memo kept. Malformed rows and
// frozen-domain violations are 400; an unknown workload is 404 (the
// proxy's reroute cue); a draining scheduler or a shard that cannot
// quiesce within the drain bound is 503 (retryable, with a pacing
// hint).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req AppendRowsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed append request: %w", err))
		return
	}
	schema, ok := s.sched.WorkloadSchema(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownWorkload, name))
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: append requires at least one row"))
		return
	}
	rows := make([]table.Row, len(req.Rows))
	for i, raw := range req.Rows {
		row, err := decodeWireRow(schema, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: append row %d: %w", i, err))
			return
		}
		rows[i] = row
	}
	res, err := s.sched.AppendRows(r.Context(), name, rows)
	if err != nil {
		writeSchedulerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Workload:        name,
		TableVersion:    res.Version,
		Rows:            res.Rows,
		TotalRows:       res.TotalRows,
		MemoInvalidated: res.Invalidated,
		MemoRetained:    res.Retained,
	})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modis.Algorithms())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
