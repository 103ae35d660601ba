package main

// The two serving workloads: a real modisd subprocess on a loopback
// port, driven over its HTTP contract with serve.Client. A job is
// submitted with POST /v1/jobs, awaited on its server-sent event stream
// until the "end" event — never by polling, whose tick would be what
// gets measured — and its report fetched with GET /v1/jobs/{id}; the
// operation's latency is what that caller observed from first byte sent
// to report decoded. Loops are closed: a client submits its next job
// when the previous report has arrived.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/table"
	"repro/modis"
	"repro/modis/serve"
	"repro/modis/workload"
)

// jobSample is one job as its caller saw it.
type jobSample struct {
	key      string // digest key
	start    time.Time
	ms       float64 // submit sent → report decoded
	submitMS float64 // POST /v1/jobs round trip
	queueMS  float64 // report's queue_ns
	searchMS float64 // report's wall_ns
	digest   string
	valuated int
	exact    int
	refused  bool  // 429 / 503 / 504
	reopens  int   // event streams that ended without their "end" event
	err      error // any failure, refusals included
}

// notifyMS is the part of a job's latency that is neither the submit
// round trip nor queueing nor search: event-stream delivery and the
// report fetch — the lag a polling client inflates to its tick.
func (s jobSample) notifyMS() float64 { return s.ms - s.submitMS - s.queueMS - s.searchMS }

func intp(v int) *int { return &v }

// runJob submits one job and follows it to its report.
func runJob(ctx context.Context, cli *serve.Client, key string, req serve.SubmitRequest) jobSample {
	s := jobSample{key: key, start: time.Now()}
	fail := func(err error) jobSample {
		s.err = err
		s.ms = float64(time.Since(s.start)) / 1e6
		var ae *serve.APIError
		if errors.As(err, &ae) && (ae.Status == 429 || ae.Status == 503 || ae.Status == 504) {
			s.refused = true
		}
		return s
	}
	st, err := cli.Submit(ctx, req)
	if err != nil {
		return fail(err)
	}
	s.submitMS = float64(time.Since(s.start)) / 1e6
	// The daemon can close a finished job's event stream a moment before
	// the job reads as done, and then sends no "end" event. A client that
	// sees the stream end without one opens it again (the stream replays),
	// a little later each time: the moment lasts as long as the job's
	// goroutine stays descheduled.
	var final *serve.JobStatus
	for final == nil {
		if final, err = cli.Events(ctx, st.JobID, nil); err != nil {
			return fail(err)
		}
		if final == nil {
			if s.reopens++; s.reopens > 100 {
				return fail(fmt.Errorf("job %s: event stream ended %d times without an end event", st.JobID, s.reopens))
			}
			time.Sleep(time.Duration(s.reopens) * 100 * time.Microsecond)
		}
	}
	if final.Status != serve.StatusDone {
		return fail(fmt.Errorf("job %s ended %s: %s", st.JobID, final.Status, final.Error))
	}
	got, err := cli.Status(ctx, st.JobID)
	if err != nil {
		return fail(err)
	}
	s.ms = float64(time.Since(s.start)) / 1e6
	if got.Report == nil {
		return fail(fmt.Errorf("job %s is done but carries no report", st.JobID))
	}
	rep := got.Report
	s.queueMS = float64(rep.Queued) / 1e6
	s.searchMS = float64(rep.Wall) / 1e6
	s.digest, s.valuated, s.exact = digest(rep), rep.Valuated, rep.ExactCalls
	return s
}

// serving is the state of one serving run.
type serving struct {
	p     params
	m     *measurement
	d     *daemon
	nproc int // client goroutines, and the daemon's -workers

	mu      sync.Mutex
	jobs    []jobSample
	windowS float64

	before, after map[string]float64 // /metrics at the window's edges
	flushed       [2]uint64          // committers' flushed records at the edges
	pendingMax    atomic.Int64
}

func (r *serving) record(s jobSample) {
	r.mu.Lock()
	r.jobs = append(r.jobs, s)
	r.mu.Unlock()
}

// edge snapshots the daemon's counters at one edge of the timed window.
func (r *serving) edge(ctx context.Context, i int) error {
	snap, err := r.d.scrape(ctx)
	if err != nil {
		return err
	}
	h, err := r.d.health(ctx)
	if err != nil {
		return err
	}
	_, r.flushed[i] = walTotals(h)
	if i == 0 {
		r.before = snap
	} else {
		r.after = snap
	}
	return nil
}

// watchPending samples the committers' backlog until stop closes.
func (r *serving) watchPending(ctx context.Context, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if h, err := r.d.health(ctx); err == nil {
				if p, _ := walTotals(h); int64(p) > r.pendingMax.Load() {
					r.pendingMax.Store(int64(p))
				}
			}
		}
	}
}

func (r *serving) delta(name string) float64 { return r.after[name] - r.before[name] }

// jobMetrics fills the end-to-end metrics and the per-layer metrics that
// come from job samples and /metrics deltas. ok reports whether a job's
// output passed its check.
func (r *serving) jobMetrics(ok func(jobSample) bool) {
	m := r.m
	var lat, submit, queue, search, notify []float64
	verified, shed, reopens := 0, 0, 0
	for _, s := range r.jobs {
		m.attempted++
		reopens += s.reopens
		if s.refused {
			shed++
		}
		if s.err != nil || !ok(s) {
			if m.failed++; m.failed <= 3 {
				m.info = append(m.info, fmt.Sprintf("failed job %s: err=%v digest=%s", s.key, s.err, s.digest))
			}
			continue
		}
		verified++
		lat = append(lat, s.ms)
		submit = append(submit, s.submitMS)
		queue = append(queue, s.queueMS)
		search = append(search, s.searchMS)
		notify = append(notify, s.notifyMS())
	}
	m.set("op_p50_ms", percentile(lat, 0.5), len(lat))
	m.set("op_p90_ms", percentile(lat, 0.9), len(lat))
	m.set("ops_per_s", float64(verified)/r.windowS, len(lat))
	if !r.p.trace {
		return
	}
	n := float64(len(r.jobs))
	m.set("serve.op_p99_ms", percentile(lat, 0.99), len(lat))
	m.set("serve.submit_rtt_ms_p50", percentile(submit, 0.5), len(submit))
	m.set("serve.queue_ms_p50", percentile(queue, 0.5), len(queue))
	m.set("serve.search_ms_p50", percentile(search, 0.5), len(search))
	m.set("serve.notify_lag_ms_p50", percentile(notify, 0.5), len(notify))
	m.set("serve.shed_count", float64(shed), len(r.jobs))
	m.set("serve.client_retries", float64(reopens), len(r.jobs))
	hits, misses := r.delta("modis_memo_hits_total"), r.delta("modis_memo_misses_total")
	m.set("serve.memo_hit_rate", ratio(hits, hits+misses), int(hits+misses))
	m.set("serve.exact_calls_per_op", ratio(r.delta("modis_exact_calls_total"), n), len(r.jobs))
	m.set("serve.merge_rate", ratio(r.delta("modis_batch_merged_passes_total"), r.delta("modis_batch_passes_total")),
		int(r.delta("modis_batch_passes_total")))
	m.set("serve.batched_share", ratio(r.delta("modis_batched_runs_total"), n), len(r.jobs))
	service, wait := r.delta("modis_pool_service_seconds_total"), r.delta("modis_pool_wait_seconds_total")
	m.set("workpool.service_ms_per_op", ratio(service*1e3, n), int(r.delta("modis_pool_tasks_total")))
	m.set("workpool.wait_ms_per_op", ratio(wait*1e3, n), int(r.delta("modis_pool_tasks_total")))
	m.set("workpool.busy_share", ratio(service, float64(r.nproc)*r.windowS), 0)
	m.set("modis.queued_ms_p50", percentile(queue, 0.5), len(queue))
}

// healthzRTT measures the HTTP+JSON floor: sequential GET /healthz.
func (r *serving) healthzRTT(ctx context.Context) {
	var rtt []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := r.d.health(ctx); err == nil {
			rtt = append(rtt, float64(time.Since(t0))/1e6)
		}
	}
	r.m.set("serve.healthz_rtt_ms_p50", percentile(rtt, 0.5), len(rtt))
}

// spans cuts client-side spans from the job samples: op → submit, queue,
// search, notify. Queue and search are laid out after the submit in the
// order they happened; their lengths are the report's own fields.
func (r *serving) spans(t0 time.Time) []span {
	var out []span
	for i, s := range r.jobs {
		if s.err != nil {
			continue
		}
		at := int64(s.start.Sub(t0))
		ns := func(ms float64) int64 { return int64(ms * 1e6) }
		op := len(out)
		out = append(out, span{Op: i, Name: "op." + s.key, Start: at, End: at + ns(s.ms), Parent: -1})
		cut := func(name string, ms float64) {
			out = append(out, span{Op: i, Name: name, Start: at, End: at + ns(ms), Parent: op})
			at += ns(ms)
		}
		cut("submit", s.submitMS)
		cut("queue", s.queueMS)
		cut("search", s.searchMS)
		cut("notify", s.notifyMS())
	}
	return out
}

// --- serve-warm ---

var warmCells = []struct{ task, algo string }{{"t1", "bi"}, {"t1", "apx"}, {"t3", "bi"}, {"t3", "apx"}}

func warmRequest(i int) (string, serve.SubmitRequest) {
	c := warmCells[i]
	return c.task + "/" + c.algo, serve.SubmitRequest{
		Workload: c.task, Algorithm: c.algo,
		Options: &serve.JobOptions{MaxLevel: intp(1)},
	}
}

// warmNode is a daemon whose shards answer the whole grid from the memo.
type warmNode struct {
	d        *daemon
	refs     map[string]string // the first post-warm-up report of each cell
	warmJobs int
}

// startWarm starts a daemon and submits passes over the grid until one
// whole pass valuates nothing: the memo then answers every job, and what
// is left to measure is the serving stack itself.
func startWarm(ctx context.Context, p params, workers int) (*warmNode, error) {
	d, err := startDaemon(ctx, filepath.Join(p.binDir, "modisd"),
		"-tasks", "t1,t3", "-rows", "60", "-workers", fmt.Sprint(workers))
	if err != nil {
		return nil, err
	}
	n := &warmNode{d: d, refs: map[string]string{}}
	cli := serve.NewClient(d.addr)
	for n.warmJobs < 400 {
		valuated := 0
		for i := range warmCells {
			key, req := warmRequest(i)
			s := runJob(ctx, cli, key, req)
			n.warmJobs++
			if s.err != nil {
				d.kill()
				return nil, fmt.Errorf("warm-up job %s: %w", key, s.err)
			}
			valuated += s.valuated
			n.refs[key] = s.digest
		}
		if valuated == 0 {
			return n, nil
		}
	}
	d.kill()
	return nil, errors.New("warm-up did not reach a pass without valuations in 400 jobs")
}

// runServeWarm is serve-warm: memo hit rate 1.0 and no exact inference,
// so HTTP, JSON, the scheduler, the ledger, the event stream, job
// plumbing and the search loop over memo hits are all that runs.
// Stationary, so a fixed duration.
func runServeWarm(ctx context.Context, p params) (*measurement, error) {
	r := &serving{p: p, m: newMeasurement(p.workload), nproc: runtime.GOMAXPROCS(0)}
	const reps = 3
	node, setupS, err := medianSetup(reps,
		func() (*warmNode, error) { return startWarm(ctx, p, r.nproc) },
		func(n *warmNode) { n.d.kill() })
	if err != nil {
		return nil, err
	}
	r.d = node.d
	stopped := false
	defer func() {
		if !stopped {
			r.d.kill()
		}
	}()
	r.m.set("setup_s", setupS, reps)

	// The job order: seeded permutations of the grid, back to back;
	// clients draw from it through one counter.
	rng := rand.New(rand.NewSource(p.seed))
	var next atomic.Int64
	order := make([]int, 0, 1<<16)
	for len(order) < cap(order) {
		order = append(order, rng.Perm(len(warmCells))...)
	}
	if err := r.edge(ctx, 0); err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(p.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := serve.NewClient(r.d.addr)
			for time.Now().Before(deadline) {
				key, req := warmRequest(order[int(next.Add(1)-1)%len(order)])
				r.record(runJob(ctx, cli, key, req))
			}
		}()
	}
	wg.Wait()
	r.windowS = time.Since(t0).Seconds()
	if err := r.edge(ctx, 1); err != nil {
		return nil, err
	}
	r.jobMetrics(func(s jobSample) bool { return s.digest == node.refs[s.key] })
	r.m.info = append(r.m.info,
		fmt.Sprintf("closed loop, %d clients over loopback HTTP; modisd -tasks t1,t3 -rows 60 -workers %d, no state dir", r.nproc, r.nproc),
		fmt.Sprintf("warm-up %d jobs; grid {t1,t3}x{bi,apx}, no budget, maxl 1; %d jobs in %.2f s", node.warmJobs, len(r.jobs), r.windowS))
	if p.trace {
		r.healthzRTT(ctx)
		if err := r.proxyHops(ctx); err != nil {
			return nil, err
		}
		if err := writeSpans(tracePath(p), r.spans(t0)); err != nil {
			return nil, err
		}
	}
	stopped = true
	r.m.set("peak_rss_mb", r.d.stop(syscall.SIGTERM), 0)
	return r.m, writeDigests(p, node.refs)
}

// proxyHops puts a modisproxy in front of the node and measures what the
// extra hop costs: the same request through the proxy minus direct, for
// a status read and for a submit, 300 each, interleaved.
func (r *serving) proxyHops(ctx context.Context) error {
	px, err := startDaemon(ctx, filepath.Join(r.p.binDir, "modisproxy"), "-nodes", r.d.addr)
	if err != nil {
		return err
	}
	defer px.stop(syscall.SIGTERM)
	direct, via := serve.NewClient(r.d.addr), serve.NewClient(px.addr)
	key, req := warmRequest(0)
	done := runJob(ctx, direct, key, req)
	if done.err != nil {
		return fmt.Errorf("proxy probe job: %w", done.err)
	}
	// The proxy learns the node's catalog on its health sweep; wait
	// until it routes.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if s := runJob(ctx, via, key, req); s.err == nil {
			break
		} else if time.Now().After(deadline) {
			return fmt.Errorf("proxy never routed: %w", s.err)
		}
	}
	var jobID string
	if page, err := direct.List(ctx, "", 1); err == nil && len(page.Jobs) > 0 {
		jobID = page.Jobs[0].JobID
	} else {
		return fmt.Errorf("proxy probe: no job to read back: %v", err)
	}
	var statusD, statusP, submitD, submitP []float64
	timeIt := func(dst *[]float64, fn func() error) {
		t0 := time.Now()
		if fn() == nil {
			*dst = append(*dst, float64(time.Since(t0))/1e6)
		}
	}
	for i := 0; i < 300; i++ {
		timeIt(&statusD, func() error { _, err := direct.Status(ctx, jobID); return err })
		timeIt(&statusP, func() error { _, err := via.Status(ctx, jobID); return err })
		for _, side := range []struct {
			cli *serve.Client
			dst *[]float64
		}{{direct, &submitD}, {via, &submitP}} {
			var id string
			timeIt(side.dst, func() error {
				st, err := side.cli.Submit(ctx, req)
				if err == nil {
					id = st.JobID
				}
				return err
			})
			if id != "" {
				side.cli.Events(ctx, id, nil) // let it finish, untimed
			}
		}
	}
	r.m.set("proxy.status_hop_ms_p50", percentile(statusP, 0.5)-percentile(statusD, 0.5), len(statusP))
	r.m.set("proxy.submit_hop_ms_p50", percentile(submitP, 0.5)-percentile(submitD, 0.5), len(submitP))
	return nil
}

// --- serve-append ---

const (
	appendRows        = 60 // row scale at which a cold exhaustive level-2 sweep takes ≈ 0.3 s on 2 CPUs
	appendBatchRows   = 8
	appendJobsPerTurn = 5
)

func appendRequest() serve.SubmitRequest {
	return serve.SubmitRequest{Workload: "t2", Algorithm: "exact", Options: &serve.JobOptions{MaxLevel: intp(2)}}
}

// appendNode is a daemon over a fresh state directory whose shard has
// swept the space once.
type appendNode struct {
	d   *daemon
	dir string
}

func appendArgs(dir string, workers int) []string {
	return []string{"-tasks", "t2", "-rows", fmt.Sprint(appendRows), "-surrogate=false",
		"-state-dir", dir, "-workers", fmt.Sprint(workers)}
}

func startAppend(ctx context.Context, p params, workers, rep int) (*appendNode, error) {
	dir := filepath.Join(p.scratch, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, filepath.Join(p.binDir, "modisd"), appendArgs(dir, workers)...)
	if err != nil {
		return nil, err
	}
	if s := runJob(ctx, serve.NewClient(d.addr), "v0", appendRequest()); s.err != nil {
		d.kill()
		return nil, fmt.Errorf("warm-up sweep: %w", s.err)
	}
	return &appendNode{d: d, dir: dir}, nil
}

// runServeAppend is serve-append: writes beside reads on one shard. The
// search is exhaustive and surrogate-free, so a skyline is a pure
// function of the table version. Each cycle, client 0 appends a seeded
// batch (the other clients wait for the response), then every client
// runs five jobs: the first of each misses the part of the memo the
// append invalidated — together, so batch merging, single-flight and the
// pool's fair queueing see real inference — and the other four hit. A
// fifth of the jobs are cold: the median sits in the warm mode and the
// 90th percentile in the cold mode, neither on the boundary. Cycles
// repeat until the time is up.
func runServeAppend(ctx context.Context, p params) (*measurement, error) {
	r := &serving{p: p, m: newMeasurement(p.workload), nproc: runtime.GOMAXPROCS(0)}
	// The in-process twin of the daemon's shard: the schema and literal
	// points the batches are synthesized from, and the reference engine.
	twin, err := workload.BuildTask("t2", appendRows, false)
	if err != nil {
		return nil, err
	}
	synth := newRowSynth(twin.Cfg.Space, p.seed)

	const reps = 3
	rep := 0
	node, setupS, err := medianSetup(reps,
		func() (*appendNode, error) { rep++; return startAppend(ctx, p, r.nproc, rep) },
		func(n *appendNode) { n.d.kill(); os.RemoveAll(n.dir) })
	if err != nil {
		return nil, err
	}
	r.d = node.d
	defer os.RemoveAll(node.dir)
	stopped := false
	defer func() {
		if !stopped {
			r.d.kill()
		}
	}()
	r.m.set("setup_s", setupS, reps)

	type appendSample struct {
		ms  float64
		res *serve.AppendResponse
		err error
	}
	var batches [][]table.Row
	var appends []appendSample
	var version uint64
	bytes0 := dirBytes(node.dir)
	if err := r.edge(ctx, 0); err != nil {
		return nil, err
	}
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	if p.trace {
		watch.Add(1)
		go r.watchPending(ctx, stopWatch, &watch)
	}
	clis := make([]*serve.Client, r.nproc)
	for c := range clis {
		clis[c] = serve.NewClient(r.d.addr)
	}
	t0 := time.Now()
	for cycles := 0; cycles == 0 || time.Since(t0).Seconds() < p.seconds; cycles++ {
		batch := synth.batch(appendBatchRows)
		wire, err := serve.WireRows(batch)
		if err != nil {
			return nil, err
		}
		at := time.Now()
		res, err := clis[0].AppendRows(ctx, "t2", wire)
		appends = append(appends, appendSample{ms: float64(time.Since(at)) / 1e6, res: res, err: err})
		if err == nil {
			batches = append(batches, batch)
			version = res.TableVersion
		}
		var wg sync.WaitGroup
		key := fmt.Sprintf("v%d", version)
		for _, cli := range clis {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < appendJobsPerTurn; j++ {
					r.record(runJob(ctx, cli, key, appendRequest()))
				}
			}()
		}
		wg.Wait()
	}
	r.windowS = time.Since(t0).Seconds()
	close(stopWatch)
	watch.Wait()
	if err := r.edge(ctx, 1); err != nil {
		return nil, err
	}
	bytes1 := dirBytes(node.dir)
	if p.trace {
		r.healthzRTT(ctx)
	}

	// References: replay the same batches into the twin and sweep after
	// each, in process.
	refs := map[string]string{}
	eng := modis.NewEngine(twin.Cfg)
	sweep := func(v uint64) error {
		rep, err := eng.Run(ctx, "exact", modis.WithMaxLevel(2), modis.WithParallelism(0))
		if err != nil {
			return fmt.Errorf("reference sweep at version %d: %w", v, err)
		}
		refs[fmt.Sprintf("v%d", v)] = digest(rep)
		return nil
	}
	if err := sweep(0); err != nil {
		return nil, err
	}
	for i, batch := range batches {
		if _, err := eng.Append(batch); err != nil {
			return nil, fmt.Errorf("reference append %d: %w", i+1, err)
		}
		if err := sweep(uint64(i + 1)); err != nil {
			return nil, err
		}
	}
	r.jobMetrics(func(s jobSample) bool { return s.digest == refs[s.key] })

	var writeMS []float64
	var retained, invalidated float64
	for _, a := range appends {
		r.m.attempted++
		if a.err != nil {
			r.m.failed++
			continue
		}
		writeMS = append(writeMS, a.ms)
		retained += float64(a.res.MemoRetained)
		invalidated += float64(a.res.MemoInvalidated)
	}
	r.m.info = append(r.m.info,
		fmt.Sprintf("closed loop, %d clients over loopback HTTP; modisd -tasks t2 -rows %d -surrogate=false -state-dir … -workers %d", r.nproc, appendRows, r.nproc),
		fmt.Sprintf("%d cycles of {client 0 appends %d rows; every client runs %d exact maxl-2 jobs} = %d jobs + %d appends in %.2f s",
			len(appends), appendBatchRows, appendJobsPerTurn, len(r.jobs), len(appends), r.windowS))

	// Durability: everything acknowledged must survive a crash.
	peak, err := r.durability(ctx, node, refs[fmt.Sprintf("v%d", version)])
	stopped = true
	if err != nil {
		return nil, err
	}
	r.m.set("peak_rss_mb", peak, 0)
	if p.trace {
		ops := float64(len(r.jobs) + len(appends))
		r.m.set("serve.write_p50_ms", percentile(writeMS, 0.5), len(writeMS))
		if retained+invalidated > 0 {
			r.m.set("fst.memo_retained_share", retained/(retained+invalidated), len(writeMS))
		}
		r.m.set("wal.records_flushed_per_op", float64(r.flushed[1]-r.flushed[0])/ops, int(ops))
		r.m.set("wal.bytes_per_op", float64(bytes1-bytes0)/ops, int(ops))
		r.m.set("wal.pending_max", float64(r.pendingMax.Load()), 0)
		if err := writeSpans(tracePath(p), r.spans(t0)); err != nil {
			return nil, err
		}
	}
	return r.m, writeDigests(p, refs)
}

// durability waits until the committers report nothing pending, kills
// the daemon with SIGKILL, restarts it on the same state directory and
// resubmits the last job: the replayed shard must answer it from the
// memo alone, with the reference skyline. It returns the first daemon's
// peak resident set.
func (r *serving) durability(ctx context.Context, node *appendNode, want string) (float64, error) {
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		h, err := r.d.health(ctx)
		if err != nil {
			r.d.kill()
			return 0, err
		}
		if pending, _ := walTotals(h); pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			r.m.broken = append(r.m.broken, "durability: committers still had records pending after 20s")
			break
		}
	}
	peak := r.d.kill()
	d2, err := startDaemon(ctx, filepath.Join(r.p.binDir, "modisd"), appendArgs(node.dir, r.nproc)...)
	if err != nil {
		return peak, fmt.Errorf("restart on the state dir: %w", err)
	}
	defer d2.stop(syscall.SIGTERM)
	s := runJob(ctx, serve.NewClient(d2.addr), "replay", appendRequest())
	switch {
	case s.err != nil:
		r.m.broken = append(r.m.broken, fmt.Sprintf("durability: job after restart failed: %v", s.err))
	case s.exact != 0:
		r.m.broken = append(r.m.broken, fmt.Sprintf("durability: job after restart ran %d exact inferences, want 0", s.exact))
	case s.digest != want:
		r.m.broken = append(r.m.broken, "durability: skyline after restart differs from the reference")
	}
	r.m.set("wal.replay_ms", float64(d2.ready)/1e6, 1)
	r.m.set("wal.replay_exact_calls", float64(s.exact), 1)
	return peak, nil
}
