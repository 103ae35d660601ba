package serve

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/modis"
)

// shardMetrics are one shard's serving counters, updated on the job
// completion path and read by /metrics scrapes.
type shardMetrics struct {
	lat        metrics.Reservoir
	done       atomic.Int64
	failed     atomic.Int64
	cancelled  atomic.Int64
	valuations atomic.Int64
	exactCalls atomic.Int64

	// Streaming counters, updated by AppendRows under the append gate.
	// tableVersion and rowCount double as the shard's race-free mirrors
	// of the space's version and row count — catalog/healthz/metrics
	// reads go through them, never through the space itself, which a
	// concurrent append may be mutating.
	appends         atomic.Int64
	rowsAppended    atomic.Int64
	memoInvalidated atomic.Int64
	tableVersion    atomic.Uint64
	rowCount        atomic.Int64
}

// nodeMetrics are the node-global counters — the across-shards view.
type nodeMetrics struct {
	lat metrics.Reservoir
}

// observeFinished folds a terminal job into its shard's and the
// node's metrics. Latency is submit-to-terminal wall time — what a
// client waiting on the job experienced, admission-queue wait
// included.
func (s *Scheduler) observeFinished(sh *shard, rec *JobRecord, job *modis.Job) {
	lat := time.Since(rec.Submitted)
	sh.met.lat.Observe(lat)
	s.met.lat.Observe(lat)
	status, _, rep := terminalState(job)
	switch status {
	case StatusDone:
		sh.met.done.Add(1)
	case StatusCancelled:
		sh.met.cancelled.Add(1)
	default:
		sh.met.failed.Add(1)
	}
	if rep != nil {
		sh.met.valuations.Add(int64(rep.Valuated))
		sh.met.exactCalls.Add(int64(rep.ExactCalls))
	}
}

// latQuantiles are the exported summary quantiles.
var latQuantiles = []float64{0.5, 0.9, 0.99}

// WriteMetrics renders the scheduler's full Prometheus text
// exposition — pool, admission, and per-shard serving series; see
// docs/serving.md for the reference. Shards are emitted in hash order
// so successive scrapes list series identically.
func (s *Scheduler) WriteMetrics(w *metrics.Writer) {
	ps := s.pool.Stats()
	w.Header("modis_pool_workers", "Fixed worker count of the daemon-global inference pool.", "gauge")
	w.Sample("modis_pool_workers", nil, float64(ps.Workers))
	w.Header("modis_pool_busy", "Pool workers executing an inference right now.", "gauge")
	w.Sample("modis_pool_busy", nil, float64(ps.Busy))
	w.Header("modis_pool_pending", "Inference tasks queued across all shards.", "gauge")
	w.Sample("modis_pool_pending", nil, float64(ps.Pending))

	s.mu.Lock()
	inflight := s.inflight
	queued := s.queued
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].hash < shards[j].hash })

	w.Header("modis_jobs_inflight", "Jobs admitted and not yet terminal.", "gauge")
	w.Sample("modis_jobs_inflight", nil, float64(inflight))
	w.Header("modis_admission_queue_depth", "Admitted jobs waiting for an execution slot.", "gauge")
	w.Sample("modis_admission_queue_depth", nil, float64(queued))

	writeSummary(w, "modis_node_job_latency_seconds",
		"Submit-to-terminal job latency across all shards (window quantiles, lifetime count/sum).",
		nil, &s.met.lat)

	for _, sh := range shards {
		labels := []metrics.Label{
			{Name: "shard", Value: shortHash(sh.hash)},
			{Name: "workload", Value: workloadLabel(sh)},
		}
		jl := func(status string) []metrics.Label {
			return append(append([]metrics.Label(nil), labels...), metrics.Label{Name: "status", Value: status})
		}
		w.Header("modis_jobs_total", "Terminal jobs by shard and status.", "counter")
		w.Sample("modis_jobs_total", jl(StatusDone), float64(sh.met.done.Load()))
		w.Sample("modis_jobs_total", jl(StatusFailed), float64(sh.met.failed.Load()))
		w.Sample("modis_jobs_total", jl(StatusCancelled), float64(sh.met.cancelled.Load()))

		writeSummary(w, "modis_job_latency_seconds",
			"Submit-to-terminal job latency by shard (window quantiles, lifetime count/sum).",
			labels, &sh.met.lat)

		w.Header("modis_valuations_total", "States valuated by completed jobs.", "counter")
		w.Sample("modis_valuations_total", labels, float64(sh.met.valuations.Load()))
		w.Header("modis_exact_calls_total", "Exact model inferences paid by completed jobs.", "counter")
		w.Sample("modis_exact_calls_total", labels, float64(sh.met.exactCalls.Load()))

		if sh.cfg.Tests != nil {
			ms := sh.cfg.Tests.MemoStats()
			w.Header("modis_memo_hits_total", "Plan-time valuations answered from the shard memo.", "counter")
			w.Sample("modis_memo_hits_total", labels, float64(ms.Hits))
			w.Header("modis_memo_misses_total", "Plan-time memo probes that found nothing.", "counter")
			w.Sample("modis_memo_misses_total", labels, float64(ms.Misses))
			w.Header("modis_memo_shared_total", "Inferences saved by single-flighting concurrent valuations.", "counter")
			w.Sample("modis_memo_shared_total", labels, float64(ms.Shared))
			w.Header("modis_memo_size", "Valuations held in the shard memo.", "gauge")
			w.Sample("modis_memo_size", labels, float64(sh.cfg.Tests.Len()))
		}

		w.Header("modis_appends_total", "Row-append batches committed to the shard.", "counter")
		w.Sample("modis_appends_total", labels, float64(sh.met.appends.Load()))
		w.Header("modis_rows_appended_total", "Rows appended to the shard's universal table.", "counter")
		w.Sample("modis_rows_appended_total", labels, float64(sh.met.rowsAppended.Load()))
		w.Header("modis_memo_invalidated_total", "Memoized valuations dropped by appends that changed their state's selected rows.", "counter")
		w.Sample("modis_memo_invalidated_total", labels, float64(sh.met.memoInvalidated.Load()))
		w.Header("modis_table_version", "The shard's current table version (append batches committed since build).", "gauge")
		w.Sample("modis_table_version", labels, float64(sh.met.tableVersion.Load()))
		w.Header("modis_table_rows", "The shard's universal-table row count.", "gauge")
		w.Sample("modis_table_rows", labels, float64(sh.met.rowCount.Load()))

		qs := sh.queue.Stats()
		w.Header("modis_pool_tasks_total", "Inference tasks the shard completed on the pool.", "counter")
		w.Sample("modis_pool_tasks_total", labels, float64(qs.Done))
		w.Header("modis_pool_service_seconds_total", "Pool execution time consumed by the shard.", "counter")
		w.Sample("modis_pool_service_seconds_total", labels, qs.Service.Seconds())
		w.Header("modis_pool_wait_seconds_total", "Queue wait accumulated by the shard's started tasks.", "counter")
		w.Sample("modis_pool_wait_seconds_total", labels, qs.Wait.Seconds())
		w.Header("modis_pool_queue_depth", "The shard's inference tasks waiting in its pool queue.", "gauge")
		w.Sample("modis_pool_queue_depth", labels, float64(qs.Pending))
		w.Header("modis_pool_inflight", "The shard's inference tasks executing right now.", "gauge")
		w.Sample("modis_pool_inflight", labels, float64(qs.Inflight))
	}
}

// writeSummary emits a Prometheus summary: window quantiles plus the
// lifetime _count and _sum.
func writeSummary(w *metrics.Writer, name, help string, labels []metrics.Label, r *metrics.Reservoir) {
	w.Header(name, help, "summary")
	qs := r.Quantiles(latQuantiles...)
	for i, q := range latQuantiles {
		ql := append(append([]metrics.Label(nil), labels...),
			metrics.Label{Name: "quantile", Value: strconv.FormatFloat(q, 'g', -1, 64)})
		w.Sample(name, ql, qs[i])
	}
	w.Sample(name+"_sum", labels, r.Sum())
	w.Sample(name+"_count", labels, float64(r.Count()))
}

// shortHash is the 12-character shard label, matching the Short()
// form descriptors print elsewhere.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// workloadLabel names a shard by its catalog names (registration
// order is canonicalized to sorted).
func workloadLabel(sh *shard) string {
	if len(sh.names) == 1 {
		return sh.names[0]
	}
	out := ""
	for i, n := range sh.names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}
