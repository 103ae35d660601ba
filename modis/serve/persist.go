package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/internal/table"
	"repro/internal/wal"
	"repro/modis"
)

// PersistOptions tune the daemon's crash-safe state directory.
type PersistOptions struct {
	// Dir is the state directory root. Every workload shard owns one
	// subdirectory named by its descriptor hash:
	//
	//	<dir>/<hash>/rows/   log of appended row batches, one record per table version
	//	<dir>/<hash>/memo/   snapshot+log of the shard's memoized Test records
	//	<dir>/<hash>/jobs/   snapshot+log of the shard's job ledger
	//
	// Persistence.OpenShard replays them in that order: the rows rebuild
	// the table's version history, the memo is validated against it, and
	// the ledger recovers the previous incarnation's jobs.
	//
	// The layout is the shard-migration unit: copying <dir>/<hash>/ to
	// another node's state dir moves the shard's warm memo and job
	// history with it, because the hash — not the node, not the catalog
	// name — is the identity everything is keyed by.
	Dir string
	// CommitInterval is the write-behind committers' max latency before
	// a pending record is flushed (default 100ms). A batch of 64 records
	// flushes at once, the committer's own threshold.
	CommitInterval time.Duration
	// CompactBytes triggers open-time compaction of the memo and the
	// ledger once a log outgrows it (default 8MB); the memo also
	// compacts when its replay met records from an older table version.
	// Compaction never runs mid-serve, and the rows log is never
	// compacted.
	CompactBytes int64
	// FS overrides the filesystem — the fault-injection seam. Nil means
	// the real one.
	FS wal.FS
}

func (o *PersistOptions) withDefaults() PersistOptions {
	out := *o
	if out.CommitInterval <= 0 {
		out.CommitInterval = 100 * time.Millisecond
	}
	if out.CompactBytes <= 0 {
		out.CompactBytes = 8 << 20
	}
	if out.FS == nil {
		out.FS = wal.OsFS{}
	}
	return out
}

// PersistenceHealth is the healthz view of the state directory: one
// committer Health per store, plus open-time failures. Degraded
// persistence never fails a run — it only shows up here.
type PersistenceHealth struct {
	Enabled bool   `json:"enabled"`
	Healthy bool   `json:"healthy"`
	Dir     string `json:"dir,omitempty"`
	// Stores maps "<hash>/memo", "<hash>/jobs", and "<hash>/rows" to
	// their condition.
	Stores map[string]wal.Health `json:"stores,omitempty"`
	// OpenErrors lists stores that failed to open and run in-memory
	// only.
	OpenErrors map[string]string `json:"open_errors,omitempty"`
}

// RecoveredJob is one job reconstructed from a shard's ledger during a
// warm start.
type RecoveredJob struct {
	ID        string
	Workload  string
	Algorithm string
	IdemKey   string
	Submitted time.Time
	// Finished reports whether a terminal entry was recovered; an
	// unfinished job was lost to the crash.
	Finished  bool
	Status    string
	Error     string
	HasReport bool
}

// Persistence owns the daemon's durable state: per shard (descriptor
// hash), an appended-rows log, a memo store and a job ledger, each
// drained by a write-behind committer. Every failure mode is non-fatal
// by construction — a store that cannot open runs in-memory only, a
// disk that stops accepting writes turns the committer unhealthy and is
// retried with backoff — and all of it is visible through Health.
type Persistence struct {
	opts PersistOptions

	mu     sync.Mutex
	shards map[string]*shardStores // hash → the shard's open stores
	// reportRefs locates each finished job's ledger record for
	// positional report reads after the in-memory handle is dropped.
	reportRefs map[string]reportRef
	openErrs   map[string]string
	closed     bool
}

// reportRef pins a finished job's report to its shard's ledger.
type reportRef struct {
	hash string
	ref  wal.RecordRef
}

// A shard's stores, indexed in the order OpenShard replays them.
const (
	rowsStore = iota
	memoStore
	jobsStore
)

// storeDirs names each store's subdirectory of <dir>/<hash>/, which is
// also its key in Health.
var storeDirs = [...]string{rowsStore: "rows", memoStore: "memo", jobsStore: "jobs"}

// shardStores are one shard's stores; a store that failed to open is
// nil, and its state lives in memory only.
type shardStores [len(storeDirs)]*persistStore

// persistStore is one open store and its write-behind committer.
type persistStore struct {
	store *wal.Store
	com   *wal.Committer
}

// OpenPersistence prepares the state directory. It only fails when
// dir cannot even be created — store-level failures are recorded and
// the affected store degrades to in-memory.
func OpenPersistence(opts PersistOptions) (*Persistence, error) {
	p := &Persistence{
		opts:       opts.withDefaults(),
		shards:     map[string]*shardStores{},
		reportRefs: map[string]reportRef{},
		openErrs:   map[string]string{},
	}
	if err := p.opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir %s: %w", opts.Dir, err)
	}
	return p, nil
}

// sanitizeName maps a shard hash (or any caller-supplied key) onto a
// filesystem-safe directory segment. Descriptor hashes are already
// plain hex; this guards the layout against foreign keys.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// noteErr records a non-fatal store failure for Health.
func (p *Persistence) noteErr(key string, err error) {
	p.mu.Lock()
	p.openErrs[key] = err.Error()
	p.mu.Unlock()
}

// snapshotFunc writes a store's whole state into a fresh generation
// (wal.Store.Compact's emit).
type snapshotFunc = func(read func(wal.RecordRef) ([]byte, error), write func([]byte) (wal.RecordRef, error)) error

// openStore opens one of the shard's stores, replaying every record
// into replay, then — when snapshot is non-nil and the log has outgrown
// CompactBytes or replay reported a record that no longer reads as
// stored — folds the log into a snapshot written by snapshot, and
// starts the store's write-behind committer. compacted reports whether
// the snapshot replaced the log. A store that fails to open returns nil
// and a compaction that fails keeps the uncompacted generation; both
// are recorded in Health, neither is fatal.
func (p *Persistence) openStore(hash string, kind int, replay func(wal.RecordRef, []byte) (stale bool), snapshot snapshotFunc) (ps *persistStore, compacted bool) {
	key := hash + "/" + storeDirs[kind]
	stale := false
	store, err := wal.OpenStore(p.opts.FS, p.opts.Dir+"/"+sanitizeName(hash)+"/"+storeDirs[kind], func(ref wal.RecordRef, payload []byte) error {
		stale = replay(ref, payload) || stale
		return nil
	})
	if err != nil {
		p.noteErr(key, err)
		return nil, false
	}
	if snapshot != nil && (stale || store.LogSize() > p.opts.CompactBytes) {
		if err := store.Compact(snapshot); err != nil {
			p.noteErr(key+"/compact", err)
		} else {
			compacted = true
		}
	}
	com := wal.NewStoreCommitter(wal.CommitterOptions{Interval: p.opts.CommitInterval}, store)
	return &persistStore{store: store, com: com}, compacted
}

// OpenShard opens the shard's durable state and replays it into cfg in
// the one order that is correct:
//
//  1. the appended-rows log re-applies every batch through cfg.Append,
//     rebuilding the table and its version→row-count history exactly as
//     the previous incarnation left it;
//  2. the memo replays into cfg.Tests through memoAcceptor, which
//     validates each persisted valuation against that history; a
//     record from an older table version loads re-stamped at the
//     current one or not at all, and either way the memo is compacted
//     at once, so the next open reads only current records. Every
//     later valuation is persisted write-behind;
//  3. the job ledger replays, and the previous incarnation's jobs are
//     returned in submission order.
//
// Records that frame correctly but decode badly (a future or foreign
// format) are skipped, never fatal. Opening a shard twice is a no-op
// the second time.
func (p *Persistence) OpenShard(hash string, cfg *fst.Config) []RecoveredJob {
	p.mu.Lock()
	_, dup := p.shards[hash]
	p.mu.Unlock()
	if dup {
		return nil
	}
	if cfg.Tests == nil {
		cfg.Tests = fst.NewTestSet()
	}
	var sh shardStores

	var schema table.Schema
	if cfg.Space != nil {
		schema = cfg.Space.Universal.Schema
	}
	sh[rowsStore], _ = p.openStore(hash, rowsStore, func(_ wal.RecordRef, payload []byte) bool {
		var e rowsEntry
		if json.Unmarshal(payload, &e) != nil || len(e.Rows) == 0 || schema == nil {
			return false
		}
		rows := make([]table.Row, 0, len(e.Rows))
		for _, raw := range e.Rows {
			row, err := decodeWireRow(schema, raw)
			if err != nil {
				return false
			}
			rows = append(rows, row)
		}
		if _, _, err := cfg.Append(rows); err != nil {
			// A batch that applied cleanly live but not on replay (e.g. a
			// foreign state dir): the memo predicate rejects the
			// valuations of the versions that never landed.
			p.noteErr(hash+"/rows/replay", err)
		}
		return false
	}, nil)

	ts, accept := cfg.Tests, memoAcceptor(cfg)
	sh[memoStore], _ = p.openStore(hash, memoStore, func(_ wal.RecordRef, payload []byte) bool {
		// The memo is keyed by state, so replay order does not matter.
		t, err := decodeTest(payload)
		if err != nil {
			return false
		}
		stale := t.Version < ts.Version()
		if accept == nil || accept(t) {
			ts.Put(t) // stamps the current version
		}
		return stale
	}, func(_ func(wal.RecordRef) ([]byte, error), write func([]byte) (wal.RecordRef, error)) error {
		// The memo state is exactly ts's entries, so the snapshot is
		// written from memory.
		for _, t := range ts.All() {
			if _, err := write(encodeTest(t)); err != nil {
				return err
			}
		}
		return nil
	})
	if memo := sh[memoStore]; memo != nil {
		ts.SetSink(func(t *fst.Test) { memo.com.Enqueue(encodeTest(t), nil) })
	}

	l := ledgerReplay{jobs: map[string]*RecoveredJob{}, refs: map[string]wal.RecordRef{}}
	var compacted bool
	sh[jobsStore], compacted = p.openStore(hash, jobsStore, func(ref wal.RecordRef, payload []byte) bool {
		l.replay(ref, payload)
		return false
	}, l.snapshot)
	if compacted {
		l.refs = l.snapRefs
	}

	p.mu.Lock()
	p.shards[hash] = &sh
	for id, ref := range l.refs {
		p.reportRefs[id] = reportRef{hash: hash, ref: ref}
	}
	p.mu.Unlock()
	if sh[jobsStore] == nil {
		return nil // a ledger that cannot open recovers no jobs
	}
	out := make([]RecoveredJob, len(l.order))
	for i, id := range l.order {
		out[i] = *l.jobs[id]
	}
	return out
}

// memoAcceptor is the memo's replay predicate for a shard whose
// persisted rows have already been replayed: a valuation recorded at
// the current table version is always current; one from an older
// version survives only when every row appended since then is outside
// its state's selected row set; one from a version the replay never
// reached (foreign or truncated state dir) is dropped.
func memoAcceptor(cfg *fst.Config) func(*fst.Test) bool {
	sp := cfg.Space
	if sp == nil {
		return nil
	}
	cur := sp.Version()
	return func(t *fst.Test) bool {
		if t.Version > cur {
			return false
		}
		if t.Version == cur {
			return true
		}
		return sp.SelectionUnchanged(t.Features, sp.RowsAtVersion(t.Version))
	}
}

// rowsEntry is one JSON record of a shard's appended-rows log: the
// table version the batch committed as, and the batch itself in wire
// form (one JSON array per row, universal-schema order). The log is
// never compacted: per-version batch boundaries are the row-count
// history the versioned memo validates old valuations against.
type rowsEntry struct {
	Version uint64            `json:"version"`
	Rows    []json.RawMessage `json:"rows"`
}

// ledgerEntry is one JSON record of a shard's job ledger. Kind
// "submitted" marks acceptance, "finished" the terminal state
// (carrying the report of a done job). Entries for one job converge by
// overwrite — replay keeps the latest per id — so duplicated records
// from retried batches are harmless.
type ledgerEntry struct {
	Kind      string        `json:"kind"`
	ID        string        `json:"id"`
	Workload  string        `json:"workload,omitempty"`
	Algorithm string        `json:"algorithm,omitempty"`
	IdemKey   string        `json:"idem_key,omitempty"`
	Submitted time.Time     `json:"submitted,omitempty"`
	Status    string        `json:"status,omitempty"`
	Error     string        `json:"error,omitempty"`
	Report    *modis.Report `json:"report,omitempty"`
}

// ledgerReplay folds a shard's ledger records into one RecoveredJob per
// id, remembering where each done job's report lives.
type ledgerReplay struct {
	order    []string
	jobs     map[string]*RecoveredJob
	refs     map[string]wal.RecordRef // id → record carrying its report
	snapRefs map[string]wal.RecordRef // refs into the compacted snapshot
}

func (l *ledgerReplay) replay(ref wal.RecordRef, payload []byte) {
	var e ledgerEntry
	if json.Unmarshal(payload, &e) != nil || e.ID == "" {
		return
	}
	r, ok := l.jobs[e.ID]
	if !ok {
		r = &RecoveredJob{ID: e.ID}
		l.jobs[e.ID] = r
		l.order = append(l.order, e.ID)
	}
	if e.IdemKey != "" {
		r.IdemKey = e.IdemKey
	}
	switch e.Kind {
	case "submitted":
		r.Workload, r.Algorithm, r.Submitted = e.Workload, e.Algorithm, e.Submitted
	case "finished":
		r.Finished = true
		r.Status, r.Error = e.Status, e.Error
		if e.Workload != "" {
			r.Workload, r.Algorithm, r.Submitted = e.Workload, e.Algorithm, e.Submitted
		}
		r.HasReport = e.Report != nil
		if e.Report != nil {
			l.refs[e.ID] = ref
		}
	}
}

// snapshot compacts the ledger to one entry per job — its converged
// state, with the report of a done job re-read from its last record.
func (l *ledgerReplay) snapshot(read func(wal.RecordRef) ([]byte, error), write func([]byte) (wal.RecordRef, error)) error {
	l.snapRefs = map[string]wal.RecordRef{}
	for _, id := range l.order {
		r := l.jobs[id]
		e := ledgerEntry{
			Kind: "submitted", ID: id,
			Workload: r.Workload, Algorithm: r.Algorithm, IdemKey: r.IdemKey, Submitted: r.Submitted,
		}
		if r.Finished {
			e.Kind, e.Status, e.Error = "finished", r.Status, r.Error
		}
		if ref, ok := l.refs[id]; ok {
			var full ledgerEntry
			if payload, err := read(ref); err == nil && json.Unmarshal(payload, &full) == nil {
				e.Report = full.Report
			}
		}
		blob, err := json.Marshal(e)
		if err != nil {
			return err
		}
		nref, err := write(blob)
		if err != nil {
			return err
		}
		if e.Report != nil {
			l.snapRefs[id] = nref
		}
	}
	return nil
}

// store returns the shard's store of the given kind, nil when the shard
// is unknown or the store runs in-memory only.
func (p *Persistence) store(hash string, kind int) *persistStore {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sh := p.shards[hash]; sh != nil {
		return sh[kind]
	}
	return nil
}

// AppendRows spills one committed append batch to the shard's rows log
// write-behind, keyed by the table version it committed as.
func (p *Persistence) AppendRows(hash string, version uint64, rows []table.Row) {
	st := p.store(hash, rowsStore)
	if st == nil {
		return
	}
	wire, err := encodeWireRows(rows)
	if err != nil {
		return
	}
	blob, err := json.Marshal(rowsEntry{Version: version, Rows: wire})
	if err != nil {
		return
	}
	st.com.Enqueue(blob, nil)
}

// appendLedger enqueues one entry on the shard's ledger write-behind.
// onDurable (may be nil) runs once the entry is synced to disk.
func (p *Persistence) appendLedger(hash string, e ledgerEntry, onDurable func(ref wal.RecordRef)) {
	l := p.store(hash, jobsStore)
	if l == nil {
		return
	}
	blob, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.com.Enqueue(blob, onDurable)
}

// AppendSubmitted records a job acceptance on its shard's ledger. The
// idempotency key (may be empty) is part of the acceptance: a warm
// restart re-registers it so a retried keyed submit replays the
// recovered job instead of re-running the search.
func (p *Persistence) AppendSubmitted(hash, id, workload, algorithm, idemKey string, submitted time.Time) {
	p.appendLedger(hash, ledgerEntry{
		Kind: "submitted", ID: id,
		Workload: workload, Algorithm: algorithm, IdemKey: idemKey, Submitted: submitted,
	}, nil)
}

// AppendFinished records a job's terminal state (and report, for done
// jobs) on its shard's ledger. onDurable (may be nil) runs once the
// record is on disk — the scheduler's cue that the in-memory handle
// may be dropped.
func (p *Persistence) AppendFinished(hash, id, workload, algorithm, idemKey string, submitted time.Time, status, errMsg string, rep *modis.Report, onDurable func()) {
	p.appendLedger(hash, ledgerEntry{
		Kind: "finished", ID: id,
		Workload: workload, Algorithm: algorithm, IdemKey: idemKey, Submitted: submitted,
		Status: status, Error: errMsg, Report: rep,
	}, func(ref wal.RecordRef) {
		if rep != nil {
			p.mu.Lock()
			p.reportRefs[id] = reportRef{hash: hash, ref: ref}
			p.mu.Unlock()
		}
		if onDurable != nil {
			onDurable()
		}
	})
}

// ReadReport fetches an archived job's report back from its shard's
// ledger. A missing or unreadable record reports false — degraded
// disks degrade to report-less status, never errors.
func (p *Persistence) ReadReport(id string) (*modis.Report, bool) {
	p.mu.Lock()
	rref, ok := p.reportRefs[id]
	p.mu.Unlock()
	if !ok {
		return nil, false
	}
	l := p.store(rref.hash, jobsStore)
	if l == nil {
		return nil, false
	}
	payload, err := l.store.ReadRecord(rref.ref)
	if err != nil {
		return nil, false
	}
	var e ledgerEntry
	if json.Unmarshal(payload, &e) != nil || e.Report == nil {
		return nil, false
	}
	return e.Report, true
}

// Health aggregates every store's condition.
func (p *Persistence) Health() PersistenceHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := PersistenceHealth{
		Enabled: true,
		Healthy: len(p.openErrs) == 0,
		Dir:     p.opts.Dir,
		Stores:  map[string]wal.Health{},
	}
	for hash, sh := range p.shards {
		for kind, ps := range sh {
			if ps == nil {
				continue
			}
			ch := ps.com.Health()
			h.Stores[hash+"/"+storeDirs[kind]] = ch
			h.Healthy = h.Healthy && ch.Healthy
		}
	}
	if len(p.openErrs) > 0 {
		h.OpenErrors = map[string]string{}
		for k, v := range p.openErrs {
			h.OpenErrors[k] = v
		}
	}
	return h
}

// allStores snapshots every open store.
func (p *Persistence) allStores() []*persistStore {
	p.mu.Lock()
	defer p.mu.Unlock()
	var stores []*persistStore
	for _, sh := range p.shards {
		for _, ps := range sh {
			if ps != nil {
				stores = append(stores, ps)
			}
		}
	}
	return stores
}

// Flush forces every committer's backlog out now — the test hook for
// "everything enqueued so far is on disk". Reports whether all stores
// fully drained.
func (p *Persistence) Flush() bool {
	drained := true
	for _, ps := range p.allStores() {
		if !ps.com.Flush() {
			drained = false
		}
	}
	return drained
}

// Close makes a final flush attempt and closes every store. Safe to
// call more than once.
func (p *Persistence) Close() {
	p.mu.Lock()
	closed := p.closed
	p.closed = true
	p.mu.Unlock()
	if closed {
		return
	}
	for _, ps := range p.allStores() {
		ps.com.Close()
		ps.store.Close()
	}
}

// encodeTest frames one memoized test for the wal: key, perf vector,
// feature vector, then the table version the valuation is current for,
// all little-endian, floats as raw IEEE-754 bits so recovery is
// bit-exact — the determinism contract depends on it.
func encodeTest(t *fst.Test) []byte {
	n := 8 + 4 + 8*len(t.Perf) + 4 + 8*len(t.Features) + 8
	buf := make([]byte, n)
	off := 0
	binary.LittleEndian.PutUint64(buf[off:], uint64(t.Key))
	off += 8
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(t.Perf)))
	off += 4
	for _, v := range t.Perf {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(t.Features)))
	off += 4
	for _, v := range t.Features {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], t.Version)
	return buf
}

// decodeTest is encodeTest's inverse. Records written before versioned
// memos end exactly at the feature vector; they decode as version 0 —
// a valuation of the table as originally built.
func decodeTest(buf []byte) (*fst.Test, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("serve: memo record too short (%d bytes)", len(buf))
	}
	off := 0
	key := binary.LittleEndian.Uint64(buf[off:])
	off += 8
	nPerf := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if nPerf < 0 || off+8*nPerf+4 > len(buf) {
		return nil, fmt.Errorf("serve: memo record perf length %d out of bounds", nPerf)
	}
	perf := make(skyline.Vector, nPerf)
	for i := range perf {
		perf[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	nFeat := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if nFeat < 0 || off+8*nFeat > len(buf) {
		return nil, fmt.Errorf("serve: memo record feature length %d out of bounds", nFeat)
	}
	var feats []float64
	if nFeat > 0 {
		feats = make([]float64, nFeat)
		for i := range feats {
			feats[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	var version uint64
	switch len(buf) - off {
	case 0:
		// Pre-versioning record: the table as originally built.
	case 8:
		version = binary.LittleEndian.Uint64(buf[off:])
	default:
		return nil, fmt.Errorf("serve: memo record has %d trailing bytes", len(buf)-off)
	}
	return &fst.Test{Key: fst.StateKey(key), Perf: perf, Features: feats, Version: version}, nil
}
