// Package serve is the serving layer of the modis engine: a
// [Scheduler] that runs concurrently submitted jobs over shared
// per-workload engines and one bounded inference pool, a
// [Server] exposing the job API over HTTP (JSON + server-sent events),
// and a [Client] for
// driving a remote daemon programmatically. Command modisd wires a
// Server to the network; cmd/modis -remote runs the CLI against one,
// and cmd/modisproxy routes a fleet of daemons by workload descriptor
// hash.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fst"
	"repro/internal/workpool"
	"repro/modis"
	"repro/modis/workload"
)

// ErrDraining is returned by Scheduler.Submit once Drain has been
// called: the scheduler no longer accepts jobs. Wire layers match it
// with errors.Is to report 503 rather than a client error.
var ErrDraining = errors.New("serve: scheduler is draining, not accepting jobs")

// ErrUnknownWorkload is returned by Submit for a workload name that
// was never registered. Wire layers match it with errors.Is to report
// 404.
var ErrUnknownWorkload = errors.New("serve: unknown workload")

// SchedulerOptions tune a Scheduler. The zero value is ready to use.
type SchedulerOptions struct {
	// Workers is the fixed worker count of the scheduler's inference
	// pool (default GOMAXPROCS) — the hard bound on exact model
	// inferences executing at once across every shard; modisd's
	// -workers flag. The pool services shards' task queues with
	// deficit round-robin, so a shard saturating the node cannot
	// starve another shard's passes.
	Workers int
	// Parallelism caps one shard's share of the inference pool — how
	// many of a shard's tasks may occupy pool workers at once. 0 means
	// no per-shard cap: a lone shard may use the whole pool. It never
	// adds workers beyond Workers. A run's own WithParallelism plays no
	// part under the scheduler: every run's exact runner is its shard's
	// queue (see docs/serving.md).
	Parallelism int
	// MaxConcurrent bounds the searches executing at once across the
	// scheduler; excess jobs queue in submission order and their wait
	// shows up as the report's Queued time. 0 means unbounded.
	MaxConcurrent int
	// MaxQueue bounds how many admitted jobs may wait for an execution
	// slot (only meaningful with MaxConcurrent > 0). A submission past
	// the bound is rejected synchronously with ErrOverloaded — the wire
	// layer's 503 + Retry-After — instead of joining a line it would
	// time out in. 0 means unbounded.
	MaxQueue int
	// MaxQueueWait bounds how long an admitted job may wait in the
	// queue before it is shed with ErrOverloaded. Shedding early returns
	// the client a fast, explicitly retryable failure instead of
	// consuming its whole deadline at the back of the line. 0 disables.
	MaxQueueWait time.Duration
	// AppendDrainWait bounds how long AppendRows waits for a shard's
	// in-flight runs to finish before rejecting the append with
	// ErrOverloaded (0 = a 30s default; negative = only the request
	// context bounds the wait); modisd's -append-drain flag.
	AppendDrainWait time.Duration
	// Persist, when set, makes the scheduler durable: registering a
	// shard opens its state under state-dir/<hash>/ and replays it —
	// the appended rows (rows/) rebuild the table, then the memo
	// (memo/) warm-starts the valuations a previous incarnation paid
	// for, then the job ledger (jobs/) recovers that incarnation's
	// jobs into the record. Appends, valuations and job transitions
	// then spill to the same three stores. Nil keeps everything in
	// memory.
	Persist *Persistence
	// LedgerWindow bounds how many finished jobs stay resident with
	// their full in-memory handle (default 128). Older ones archive:
	// status and error stay resolvable; with Persist the report is read
	// back from disk on demand once the ledger record is durable,
	// without it the report is gone.
	LedgerWindow int
}

// Scheduler runs jobs behind a pool of per-shard engines. A workload
// is registered under a catalog name with its [workload.Descriptor];
// the descriptor's content hash is the shard identity: jobs submitted
// for the same hash — under any catalog name, from any process that
// derived the same descriptor — share one engine (hence one memoized
// test set: overlapping runs share valuations, and a state two runs
// need at once is inferred once through the memo's single-flight) and
// one queue in the scheduler's inference pool, which every run's exact
// inferences go through. Jobs for different shards run side by side
// independently, and a shard's persisted state lives in its own
// state-dir/<hash>/ directory, so moving a shard between nodes built
// for the same GOARCH is a directory copy (floating-point results, and
// so the persisted memo, are not yet portable across architectures).
//
// A Scheduler is safe for concurrent use. It also keeps the record of
// every job it accepted, so wire layers can resolve job ids.
type Scheduler struct {
	opts SchedulerOptions
	slot chan struct{} // admission semaphore; nil when unbounded
	pool *workpool.Pool
	met  *nodeMetrics

	// regMu serializes Register (which does store IO); s.mu stays a
	// leaf lock for the maps.
	regMu sync.Mutex

	mu       sync.Mutex
	regs     map[string]*registration // catalog name → registration
	shards   map[string]*shard        // descriptor hash → serving state
	jobs     map[string]*JobRecord
	order    []string
	pos      map[string]int        // id → index in order, the pagination cursor index
	finished []string              // durable finished ids, oldest first — the archive queue
	idem     map[string]*idemEntry // idempotency key → accepted job
	inflight int
	queued   int // jobs admitted but still waiting for an execution slot
	draining bool
	idle     chan struct{} // closed when draining hits zero in-flight
}

// idemEntry single-flights one idempotency key: the reserving submit
// publishes its job id and closes done; concurrent same-key submits
// wait on done and return the same record. Entries whose reserving
// attempt failed synchronously are deleted so the key can be retried.
type idemEntry struct {
	done chan struct{}
	id   string
}

// registration binds one catalog name to its shard.
type registration struct {
	name string
	desc *workload.Descriptor
	sh   *shard
}

// shard is one workload identity's shared serving state.
type shard struct {
	hash   string
	canon  string // canonical descriptor JSON — the collision-guard witness
	cfg    *fst.Config
	engine *modis.Engine
	queue  *workpool.Queue // the shard's lane into the scheduler's pool
	met    *shardMetrics
	names  []string // catalog names registered onto this shard, sorted
	jobs   int      // jobs accepted for this shard (including recovered)

	// appendMu serializes AppendRows on the shard; gate excludes each
	// append from the shard's running searches (see append.go).
	appendMu sync.Mutex
	gate     appendGate
}

// JobRecord is a scheduler's ledger entry for one accepted job. A
// record is either live — carrying the job handle — or archived: the
// handle has been dropped to bound resident memory, and the report is
// read back from the persistence ledger on demand (a scheduler without
// persistence keeps only the status and error). Records recovered from
// a previous incarnation start archived.
type JobRecord struct {
	// ID is the job id.
	ID string
	// Workload is the submit-time workload name (may be empty for
	// in-process submissions).
	Workload string
	// Hash is the workload's descriptor hash — the shard the job ran
	// on (empty for records recovered from a pre-descriptor ledger).
	Hash string
	// Algorithm is the canonical algorithm key.
	Algorithm string
	// IdemKey is the submission's idempotency key ("" when none was
	// given). A later submit carrying the same key returns this record
	// instead of running again — across restarts, since the key rides
	// the persisted ledger.
	IdemKey string
	// Submitted is the accept time.
	Submitted time.Time

	mu   sync.Mutex
	job  *modis.Job
	arch *archivedJob
}

// archivedJob is the terminal state kept once the handle is dropped.
type archivedJob struct {
	status    string
	errMsg    string
	hasReport bool
}

// Live returns the in-memory job handle, or nil for an archived
// record.
func (r *JobRecord) Live() *modis.Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.job
}

// archive drops the handle, keeping the terminal state.
func (r *JobRecord) archive(status, errMsg string, hasReport bool) {
	r.mu.Lock()
	r.job = nil
	r.arch = &archivedJob{status: status, errMsg: errMsg, hasReport: hasReport}
	r.mu.Unlock()
}

// snapshot returns the record's two halves atomically: exactly one of
// job/arch is non-nil.
func (r *JobRecord) snapshot() (*modis.Job, *archivedJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.job, r.arch
}

// Cancel cancels a live job; archived jobs are already terminal.
func (r *JobRecord) Cancel() {
	if job := r.Live(); job != nil {
		job.Cancel()
	}
}

// Done returns a channel closed once the job is terminal; archived
// records answer immediately.
func (r *JobRecord) Done() <-chan struct{} {
	if job := r.Live(); job != nil {
		return job.Done()
	}
	return closedDone
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// NewScheduler returns a Scheduler with the given options. Workloads
// are registered afterwards with Register; with Persist set, each
// Register recovers its shard's memo and job ledger.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	if opts.LedgerWindow <= 0 {
		opts.LedgerWindow = 128
	}
	s := &Scheduler{
		opts:   opts,
		pool:   workpool.New(workpool.Options{Workers: opts.Workers}),
		met:    &nodeMetrics{},
		regs:   map[string]*registration{},
		shards: map[string]*shard{},
		jobs:   map[string]*JobRecord{},
		pos:    map[string]int{},
		idem:   map[string]*idemEntry{},
		idle:   make(chan struct{}),
	}
	if opts.MaxConcurrent > 0 {
		s.slot = make(chan struct{}, opts.MaxConcurrent)
	}
	return s
}

// Close stops the scheduler's inference pool: tasks already submitted
// drain first, and any pass submitted afterwards executes inline on
// its run's goroutine, so in-flight jobs still finish correctly. Call
// after Drain (or CancelAll) when shutting the daemon down.
func (s *Scheduler) Close() {
	s.pool.Close()
}

// Register adds a workload to the catalog under desc.Name, keyed by
// the descriptor's content hash. Registering the same name with the
// same identity is idempotent; a second name whose descriptor is
// structurally equal shares the existing shard (the first
// registration's config — and memo — wins). With persistence enabled,
// the shard's memo store attaches under state-dir/<hash>/memo (warm
// start) and the shard's previous-incarnation jobs are recovered into
// the record.
//
// The hash-collision guard: two descriptors that hash identically but
// differ structurally are rejected with an error rather than silently
// sharing an engine — a silent share would cross-contaminate memoized
// valuations between genuinely different workloads.
func (s *Scheduler) Register(desc *workload.Descriptor, cfg *fst.Config) error {
	if desc == nil {
		return errors.New("serve: register: nil descriptor")
	}
	return s.register(desc, cfg, desc.Hash())
}

// register is Register with the hash injected — the seam the
// collision-guard tests force hashes through (sha256 collisions being
// otherwise hard to come by).
func (s *Scheduler) register(desc *workload.Descriptor, cfg *fst.Config, hash string) error {
	if desc.Name == "" {
		return errors.New("serve: register: descriptor has no catalog name")
	}
	if cfg == nil {
		return fmt.Errorf("serve: register %s: nil config", desc.Name)
	}
	canon := string(desc.CanonicalJSON())

	s.regMu.Lock()
	defer s.regMu.Unlock()

	s.mu.Lock()
	if prev, ok := s.regs[desc.Name]; ok {
		same := prev.sh.hash == hash && prev.sh.canon == canon
		s.mu.Unlock()
		if same {
			return nil // idempotent re-registration
		}
		return fmt.Errorf("serve: register %s: name already bound to workload %.12s", desc.Name, prev.sh.hash)
	}
	if sh, ok := s.shards[hash]; ok {
		if sh.canon != canon {
			s.mu.Unlock()
			return fmt.Errorf("serve: register %s: descriptor hash collision on %.12s: structurally different workloads hash identically; refusing to share an engine", desc.Name, hash)
		}
		// Same identity under another name: share the shard.
		sh.names = append(sh.names, desc.Name)
		sort.Strings(sh.names)
		s.regs[desc.Name] = &registration{name: desc.Name, desc: desc, sh: sh}
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	// New shard. Open its durable state first (store IO, serialized by
	// regMu): rows, memo and ledger replay and the shard's
	// previous-incarnation jobs are recovered into the record.
	// Persistence failures degrade the shard to in-memory (visible in
	// Health), never fail registration.
	var recovered []RecoveredJob
	if s.opts.Persist != nil {
		recovered = s.opts.Persist.OpenShard(hash, cfg)
	}

	queue := s.pool.NewQueue(hash, s.opts.Parallelism)
	sh := &shard{
		hash:   hash,
		canon:  canon,
		cfg:    cfg,
		engine: modis.NewEngine(cfg),
		queue:  queue,
		met:    &shardMetrics{},
		names:  []string{desc.Name},
	}
	if cfg.Space != nil {
		// The shard-level mirrors the catalog, healthz, and /metrics
		// read — AppendRows keeps them current under the gate, so reads
		// never touch the space's own fields concurrently with appends.
		sh.met.tableVersion.Store(cfg.Space.Version())
		sh.met.rowCount.Store(int64(len(cfg.Space.Universal.Rows)))
	}
	s.mu.Lock()
	s.shards[hash] = sh
	s.regs[desc.Name] = &registration{name: desc.Name, desc: desc, sh: sh}
	for _, rj := range recovered {
		rec := &JobRecord{
			ID: rj.ID, Workload: rj.Workload, Hash: hash, Algorithm: rj.Algorithm,
			IdemKey: rj.IdemKey, Submitted: rj.Submitted,
		}
		status, errMsg, hasReport := rj.Status, rj.Error, rj.HasReport
		if !rj.Finished {
			status = StatusFailed
			errMsg = "serve: lost: daemon restarted while the job was in flight"
			hasReport = false
			// Converge the ledger so the next restart recovers the
			// loss directly.
			s.opts.Persist.AppendFinished(hash, rj.ID, rj.Workload, rj.Algorithm, rj.IdemKey, rj.Submitted, status, errMsg, nil, nil)
		}
		rec.arch = &archivedJob{status: status, errMsg: errMsg, hasReport: hasReport}
		sh.jobs++
		s.pos[rec.ID] = len(s.order)
		s.jobs[rec.ID] = rec
		s.order = append(s.order, rec.ID)
		if rec.IdemKey != "" {
			// Recovered keys dedupe exactly like live ones: a client
			// retrying a submit it made against the previous incarnation
			// gets its original job back, not a rerun.
			s.idem[rec.IdemKey] = &idemEntry{done: closedDone, id: rec.ID}
		}
	}
	s.mu.Unlock()
	return nil
}

// Engine returns the shared engine serving the named workload, or nil
// if the name was never registered — the pool keying Submit relies on.
func (s *Scheduler) Engine(name string) *modis.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg, ok := s.regs[name]; ok {
		return reg.sh.engine
	}
	return nil
}

// WorkloadInfo is the catalog view of one registered workload.
type WorkloadInfo struct {
	Name       string               `json:"name"`
	Hash       string               `json:"hash"`
	Descriptor *workload.Descriptor `json:"descriptor,omitempty"`
	// TableVersion is the shard's current table version — append
	// batches committed (live or replayed from the rows log) since the
	// workload's table was built. The descriptor hash is version-blind:
	// appends change serving state, never shard identity.
	TableVersion uint64 `json:"table_version"`
	// Rows is the universal table's current row count.
	Rows int `json:"rows"`
}

// WorkloadInfos lists the registered workloads with their shard
// identity, sorted by name — GET /v1/workloads and the proxy's
// routing catalog.
func (s *Scheduler) WorkloadInfos() []WorkloadInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkloadInfo, 0, len(s.regs))
	for _, reg := range s.regs {
		out = append(out, WorkloadInfo{
			Name: reg.name, Hash: reg.sh.hash, Descriptor: reg.desc,
			TableVersion: reg.sh.met.tableVersion.Load(),
			Rows:         int(reg.sh.met.rowCount.Load()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ShardInfo is the healthz view of one shard this node holds.
type ShardInfo struct {
	Hash string `json:"hash"`
	// Workloads are the catalog names registered onto the shard.
	Workloads []string `json:"workloads"`
	// Jobs counts jobs accepted for the shard, recovered ones
	// included.
	Jobs int `json:"jobs"`
	// Memo is the number of memoized valuations held.
	Memo int `json:"memo"`
	// TableVersion is the shard's current table version; Rows the
	// universal table's current row count.
	TableVersion uint64 `json:"table_version"`
	Rows         int    `json:"rows"`
}

// Shards lists the shards this scheduler holds, sorted by hash — the
// node identity half of /healthz.
func (s *Scheduler) Shards() []ShardInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardInfo, 0, len(s.shards))
	for _, sh := range s.shards {
		info := ShardInfo{
			Hash: sh.hash, Workloads: append([]string(nil), sh.names...), Jobs: sh.jobs,
			TableVersion: sh.met.tableVersion.Load(), Rows: int(sh.met.rowCount.Load()),
		}
		if sh.cfg.Tests != nil {
			info.Memo = sh.cfg.Tests.Len()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// Submit schedules one job: the named algorithm over the registered
// workload, on the workload shard's shared engine. Its valuation
// windows go to the shard's pool queue, and states it shares with the
// shard's other in-flight jobs are inferred once, through the memo's
// single-flight. Submission errors (unknown workload, unknown
// algorithm, invalid options, draining scheduler, overload) surface
// synchronously; everything later is observed through the returned job
// handle.
func (s *Scheduler) Submit(ctx context.Context, workloadName string, algorithm string, opts ...modis.Option) (*modis.Job, error) {
	rec, _, err := s.SubmitKeyed(ctx, workloadName, algorithm, "", opts...)
	if err != nil {
		return nil, err
	}
	return rec.Live(), nil
}

// SubmitKeyed is Submit with an idempotency key: a key already bound
// to an accepted job — live, archived, or recovered from the persisted
// ledger of a previous incarnation — returns that job's record with
// replayed=true instead of running a second search. Concurrent
// same-key submissions single-flight: exactly one runs, the rest wait
// for its acceptance and replay it. An empty key never dedupes.
//
// The contract is the standard one: a key names one logical
// submission, so retries (client retries after a transport failure,
// proxy failover retries) must reuse the key and SHOULD carry an
// identical request body — the replayed record is returned regardless
// of the retry's body.
func (s *Scheduler) SubmitKeyed(ctx context.Context, workloadName, algorithm, idemKey string, opts ...modis.Option) (rec *JobRecord, replayed bool, err error) {
	var entry *idemEntry
	for {
		s.mu.Lock()
		if idemKey != "" {
			if e, ok := s.idem[idemKey]; ok {
				s.mu.Unlock()
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
				if e.id != "" {
					s.mu.Lock()
					rec := s.jobs[e.id]
					s.mu.Unlock()
					return rec, true, nil
				}
				// The reserving attempt failed synchronously and released
				// the key; race to reserve it ourselves.
				continue
			}
		}
		break
	}
	// s.mu is held.
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrDraining
	}
	reg, ok := s.regs[workloadName]
	if !ok {
		known := make([]string, 0, len(s.regs))
		for name := range s.regs {
			known = append(known, name)
		}
		sort.Strings(known)
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%w %q (known: %s)", ErrUnknownWorkload, workloadName, strings.Join(known, ", "))
	}
	// Overload shedding, part one: a bounded admission queue rejects at
	// the door once MaxQueue jobs already wait for a slot, instead of
	// growing a line whose tail is doomed to time out.
	if s.slot != nil && s.opts.MaxQueue > 0 && s.queued >= s.opts.MaxQueue {
		n := s.queued
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%w: admission queue full (%d waiting, cap %d)", ErrOverloaded, n, s.opts.MaxQueue)
	}
	sh := reg.sh
	s.inflight++
	if s.slot != nil {
		s.queued++
	}
	if idemKey != "" {
		entry = &idemEntry{done: make(chan struct{})}
		s.idem[idemKey] = entry
	}
	s.mu.Unlock()

	// The scheduler's hooks come after the caller's options so they
	// cannot be overridden into an unmanaged run.
	all := make([]modis.Option, 0, len(opts)+2)
	all = append(all, opts...)
	// Every run's exact inferences execute on the shard's queue, where
	// they interleave fairly with other shards' tasks and the node's
	// inference concurrency stays bounded by the pool's workers.
	// Concurrent runs of one shard share inference through the memo's
	// single-flight, not through the runner.
	all = append(all, modis.WithExactRunner(sh.queue))
	// entered tracks whether the run passed the shard's append gate, so
	// the completion goroutine releases exactly what was taken.
	var entered atomic.Bool
	all = append(all, modis.WithAdmission(func(ctx context.Context) error {
		if err := s.acquireSlot(ctx); err != nil {
			return err
		}
		if err := sh.gate.beginRun(ctx); err != nil {
			// The run never starts, so the completion goroutine won't
			// release the slot (job.Started() stays false): give it back
			// here.
			if s.slot != nil {
				<-s.slot
			}
			return err
		}
		entered.Store(true)
		return nil
	}))

	job, err := sh.engine.Submit(ctx, algorithm, all...)
	if err != nil {
		s.unqueue()
		s.finishJob()
		if entry != nil {
			s.mu.Lock()
			delete(s.idem, idemKey)
			s.mu.Unlock()
			close(entry.done)
		}
		return nil, false, err
	}
	rec = &JobRecord{ID: job.ID(), Workload: workloadName, Hash: sh.hash, Algorithm: job.Algorithm(), IdemKey: idemKey, Submitted: time.Now(), job: job}
	s.mu.Lock()
	sh.jobs++
	s.pos[rec.ID] = len(s.order)
	s.jobs[rec.ID] = rec
	s.order = append(s.order, rec.ID)
	s.mu.Unlock()
	if entry != nil {
		entry.id = rec.ID
		close(entry.done)
	}
	if s.opts.Persist != nil {
		s.opts.Persist.AppendSubmitted(rec.Hash, rec.ID, rec.Workload, rec.Algorithm, rec.IdemKey, rec.Submitted)
	}

	go func() {
		<-job.Done()
		// Leave the append gate, then release the admission slot for
		// the next queued job.
		if entered.Load() {
			sh.gate.endRun()
		}
		if s.slot != nil && job.Started() {
			<-s.slot
		}
		s.observeFinished(sh, rec, job)
		s.recordFinished(rec)
		s.finishJob()
	}()
	return rec, false, nil
}

// acquireSlot is the admission hook's wait for an execution slot,
// bounded by MaxQueueWait — overload shedding, part two: a job that
// cannot start within the bound fails fast with ErrOverloaded (an
// explicitly retryable failure) instead of burning its whole deadline
// in the queue. Runs on the job goroutine; always leaves the queue
// accounting balanced.
func (s *Scheduler) acquireSlot(ctx context.Context) error {
	defer s.unqueue()
	if s.slot == nil {
		return nil
	}
	select {
	case s.slot <- struct{}{}:
		return nil
	default:
	}
	var shed <-chan time.Time
	if s.opts.MaxQueueWait > 0 {
		t := time.NewTimer(s.opts.MaxQueueWait)
		defer t.Stop()
		shed = t.C
	}
	select {
	case s.slot <- struct{}{}:
		return nil
	case <-shed:
		return fmt.Errorf("%w: shed after queueing %s for an execution slot", ErrOverloaded, s.opts.MaxQueueWait)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// unqueue balances Submit's queued++ once the job stops waiting —
// slot acquired, shed, cancelled, or never started. Idempotence is the
// caller's job: exactly one of the admission hook and the synchronous
// failure path runs it.
func (s *Scheduler) unqueue() {
	s.mu.Lock()
	if s.slot != nil {
		s.queued--
	}
	s.mu.Unlock()
}

// QueueDepth reports how many admitted jobs are waiting for an
// execution slot right now.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// recordFinished joins a terminal job to the archive queue — at once
// without persistence, once its ledger record is durable with it — and
// jobs beyond the resident window drop their in-memory handle.
func (s *Scheduler) recordFinished(rec *JobRecord) {
	job := rec.Live()
	if job == nil {
		return
	}
	if s.opts.Persist == nil {
		s.retire(rec.ID)
		return
	}
	status, errMsg, rep := terminalState(job)
	s.opts.Persist.AppendFinished(rec.Hash, rec.ID, rec.Workload, rec.Algorithm, rec.IdemKey, rec.Submitted, status, errMsg, rep, func() {
		s.retire(rec.ID)
	})
}

// retire queues a finished job for archiving and archives the oldest
// ones beyond LedgerWindow. An archived job keeps its status and error;
// its report survives only where the persistence ledger holds it.
func (s *Scheduler) retire(id string) {
	s.mu.Lock()
	s.finished = append(s.finished, id)
	var evict []*JobRecord
	for len(s.finished) > s.opts.LedgerWindow {
		if old, ok := s.jobs[s.finished[0]]; ok {
			evict = append(evict, old)
		}
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	for _, old := range evict {
		if j := old.Live(); j != nil {
			st, em, rp := terminalState(j)
			old.archive(st, em, rp != nil)
		}
	}
}

// terminalState maps a finished job handle onto its wire status.
func terminalState(job *modis.Job) (status, errMsg string, rep *modis.Report) {
	rep, err := job.Result()
	switch {
	case err == nil:
		return StatusDone, "", rep
	case errors.Is(err, context.Canceled):
		return StatusCancelled, err.Error(), nil
	default:
		return StatusFailed, err.Error(), nil
	}
}

func (s *Scheduler) finishJob() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
}

// Job resolves a job id accepted by this scheduler.
func (s *Scheduler) Job(id string) (*JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

// Jobs lists the accepted jobs in submission order.
func (s *Scheduler) Jobs() []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Drain stops accepting new jobs and waits for the in-flight ones to
// finish, or until ctx expires — the graceful-shutdown path modisd
// takes on SIGTERM. It returns ctx.Err() (with the number of jobs
// still running) when the deadline cuts the wait short; the jobs keep
// their own contexts and are not cancelled here.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.inflight == 0 {
			close(s.idle)
		}
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("serve: drain interrupted with %d jobs in flight: %w", n, ctx.Err())
	}
}

// CancelAll cancels every job still in flight (used after a drain
// deadline passes to shut down hard). Archived jobs are already
// terminal and are skipped.
func (s *Scheduler) CancelAll() {
	for _, rec := range s.Jobs() {
		rec.Cancel()
	}
}

// JobsPage lists accepted jobs in submission order, starting after
// cursor (the last job id of the previous page; empty starts from the
// beginning), returning at most limit records (limit <= 0 means all).
// nextCursor is non-empty iff more jobs follow — pass it back in to
// continue. An unknown cursor yields an empty page with no cursor
// rather than an error: the job it pointed at can only have left the
// record by never having been in it.
func (s *Scheduler) JobsPage(cursor string, limit int) (recs []*JobRecord, nextCursor string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := 0
	if cursor != "" {
		idx, ok := s.pos[cursor]
		if !ok {
			return nil, ""
		}
		start = idx + 1
	}
	end := len(s.order)
	if limit > 0 && start+limit < end {
		end = start + limit
		nextCursor = s.order[end-1]
	}
	for _, id := range s.order[start:end] {
		recs = append(recs, s.jobs[id])
	}
	return recs, nextCursor
}
