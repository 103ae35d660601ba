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
	//	<dir>/<hash>/memo/   snapshot+log of the shard's memoized Test records
	//	<dir>/<hash>/jobs/   snapshot+log of the shard's job ledger
	//	<dir>/<hash>/rows/   log of appended row batches, one record per table version
	//
	// The layout is the shard-migration unit: copying <dir>/<hash>/ to
	// another node's state dir moves the shard's warm memo and job
	// history with it, because the hash — not the node, not the catalog
	// name — is the identity everything is keyed by.
	Dir string
	// CommitInterval is the write-behind committers' max latency before
	// a pending record is flushed (default 100ms).
	CommitInterval time.Duration
	// CommitThreshold is the batch size that flushes immediately
	// (default 64).
	CommitThreshold int
	// CompactBytes triggers open-time log compaction once a store's log
	// outgrows it (default 8MB). Compaction never runs mid-serve.
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
	if out.CommitThreshold <= 0 {
		out.CommitThreshold = 64
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
// hash), one memo store and one job ledger, each drained by a
// write-behind committer. Every failure mode is non-fatal by
// construction — a store that cannot open runs in-memory only, a disk
// that stops accepting writes turns the committer unhealthy and is
// retried with backoff — and all of it is visible through Health.
type Persistence struct {
	opts PersistOptions

	mu      sync.Mutex
	memos   map[string]*persistStore // hash → memo store
	ledgers map[string]*persistStore // hash → job ledger
	rows    map[string]*persistStore // hash → appended-rows log
	// reportRefs locates each finished job's ledger record for
	// positional report reads after the in-memory handle is dropped.
	reportRefs map[string]reportRef
	// reportCache is a tiny LRU over decoded reports of archived jobs.
	reportCache map[string]*modis.Report
	reportOrder []string
	openErrs    map[string]string
	closed      bool
}

// reportRef pins a finished job's report to its shard's ledger.
type reportRef struct {
	hash string
	ref  wal.RecordRef
}

// reportCacheCap bounds the decoded-report LRU.
const reportCacheCap = 32

type persistStore struct {
	store *wal.Store
	com   *wal.Committer
}

// OpenPersistence prepares the state directory. It only fails when
// dir cannot even be created — store-level failures are recorded and
// the affected store degrades to in-memory.
func OpenPersistence(opts PersistOptions) (*Persistence, error) {
	p := &Persistence{
		opts:        opts.withDefaults(),
		memos:       map[string]*persistStore{},
		ledgers:     map[string]*persistStore{},
		rows:        map[string]*persistStore{},
		reportRefs:  map[string]reportRef{},
		reportCache: map[string]*modis.Report{},
		openErrs:    map[string]string{},
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

// shardDir is the shard's private corner of the state directory.
func (p *Persistence) shardDir(hash string) string {
	return p.opts.Dir + "/" + sanitizeName(hash)
}

func (p *Persistence) committerOptions() wal.CommitterOptions {
	return wal.CommitterOptions{
		Interval:  p.opts.CommitInterval,
		Threshold: p.opts.CommitThreshold,
	}
}

// AttachMemo opens (recovering if present) the memo store of the
// shard, replays every persisted test into ts.Put — the memo is keyed
// by state, so replay order does not matter — and installs a sink so
// every future valuation is persisted write-behind. accept (nil = accept
// all) screens each decoded record before it is replayed: the
// versioned-memo predicate drops valuations whose recorded table
// version no longer matches the shard's replayed row history. A store
// that fails to open leaves ts purely in-memory and records the
// failure in Health; the returned error is informational, never fatal
// to serving.
func (p *Persistence) AttachMemo(hash string, ts *fst.TestSet, accept func(*fst.Test) bool) error {
	dir := p.shardDir(hash) + "/memo"
	var replayed int
	store, err := wal.OpenStore(p.opts.FS, dir, func(ref wal.RecordRef, payload []byte) error {
		t, derr := decodeTest(payload)
		if derr != nil {
			// A record that framed correctly but decodes badly is from
			// a future/foreign format: skip it rather than refuse to
			// start.
			return nil
		}
		if accept != nil && !accept(t) {
			return nil
		}
		ts.Put(t)
		replayed++
		return nil
	})
	if err != nil {
		p.mu.Lock()
		p.openErrs[hash+"/memo"] = err.Error()
		p.mu.Unlock()
		return fmt.Errorf("serve: memo store %.12s degraded to in-memory: %w", hash, err)
	}

	// Open-time compaction: fold the log into a snapshot once it has
	// outgrown the threshold. The memo state is exactly ts's entries, so
	// the snapshot is written from memory.
	if store.LogSize() > p.opts.CompactBytes {
		tests := ts.All()
		if cerr := store.Compact(func(_ func(wal.RecordRef) ([]byte, error), write func([]byte) (wal.RecordRef, error)) error {
			for _, t := range tests {
				if _, werr := write(encodeTest(t)); werr != nil {
					return werr
				}
			}
			return nil
		}); cerr != nil {
			// Non-fatal: keep serving on the uncompacted generation.
			p.mu.Lock()
			p.openErrs[hash+"/memo/compact"] = cerr.Error()
			p.mu.Unlock()
		}
	}

	com := wal.NewStoreCommitter(p.committerOptions(), store)
	p.mu.Lock()
	p.memos[hash] = &persistStore{store: store, com: com}
	p.mu.Unlock()
	ts.SetSink(func(t *fst.Test) {
		com.Enqueue(encodeTest(t), nil)
	})
	return nil
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

// RecoverShard opens the shard's job ledger, replays it, and returns
// the jobs of the previous incarnation in submission order. Open
// failure degrades the ledger to in-memory (recorded in Health) and
// returns no recovered jobs. Recovering the same shard twice is a
// no-op the second time.
func (p *Persistence) RecoverShard(hash string) []RecoveredJob {
	p.mu.Lock()
	if _, dup := p.ledgers[hash]; dup {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()

	dir := p.shardDir(hash) + "/jobs"
	var order []string
	recovered := map[string]*RecoveredJob{}
	refs := map[string]wal.RecordRef{}
	store, err := wal.OpenStore(p.opts.FS, dir, func(ref wal.RecordRef, payload []byte) error {
		var e ledgerEntry
		if derr := json.Unmarshal(payload, &e); derr != nil || e.ID == "" {
			return nil // foreign/corrupt-format record: skip, don't refuse
		}
		r, ok := recovered[e.ID]
		if !ok {
			r = &RecoveredJob{ID: e.ID}
			recovered[e.ID] = r
			order = append(order, e.ID)
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
				refs[e.ID] = ref
			}
		}
		return nil
	})
	if err != nil {
		p.mu.Lock()
		p.openErrs[hash+"/jobs"] = err.Error()
		p.mu.Unlock()
		return nil
	}

	// Open-time compaction: one finished entry per job replaces its
	// whole history.
	if store.LogSize() > p.opts.CompactBytes {
		newRefs := map[string]wal.RecordRef{}
		if cerr := store.Compact(func(read func(wal.RecordRef) ([]byte, error), write func([]byte) (wal.RecordRef, error)) error {
			for _, id := range order {
				r := recovered[id]
				e := ledgerEntry{
					Kind: "finished", ID: id,
					Workload: r.Workload, Algorithm: r.Algorithm, IdemKey: r.IdemKey, Submitted: r.Submitted,
					Status: r.Status, Error: r.Error,
				}
				if !r.Finished {
					e.Kind = "submitted"
					e.Status, e.Error = "", ""
				}
				if ref, ok := refs[id]; ok {
					payload, rerr := read(ref)
					if rerr == nil {
						var full ledgerEntry
						if json.Unmarshal(payload, &full) == nil {
							e.Report = full.Report
						}
					}
				}
				blob, merr := json.Marshal(e)
				if merr != nil {
					return merr
				}
				nref, werr := write(blob)
				if werr != nil {
					return werr
				}
				if e.Report != nil {
					newRefs[id] = nref
				}
			}
			return nil
		}); cerr != nil {
			p.mu.Lock()
			p.openErrs[hash+"/jobs/compact"] = cerr.Error()
			p.mu.Unlock()
		} else {
			refs = newRefs
		}
	}

	com := wal.NewStoreCommitter(p.committerOptions(), store)
	p.mu.Lock()
	p.ledgers[hash] = &persistStore{store: store, com: com}
	for id, ref := range refs {
		p.reportRefs[id] = reportRef{hash: hash, ref: ref}
	}
	p.mu.Unlock()

	out := make([]RecoveredJob, 0, len(order))
	for _, id := range order {
		out = append(out, *recovered[id])
	}
	return out
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

// ReplayRows opens the shard's appended-rows log and replays every
// persisted batch through cfg.Append in logged order, rebuilding the
// table — and the version→row-count history — exactly as the previous
// incarnation left it. Call before AttachMemo: the memo's replay
// predicate validates each persisted valuation against the row history
// this replay reconstructs. Open failure degrades appends to in-memory
// (recorded in Health); a record that fails to decode or to re-apply
// is skipped and recorded, never fatal. Replaying the same shard twice
// is a no-op the second time.
func (p *Persistence) ReplayRows(hash string, cfg *fst.Config) error {
	p.mu.Lock()
	if _, dup := p.rows[hash]; dup {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()

	dir := p.shardDir(hash) + "/rows"
	var schema table.Schema
	if cfg.Space != nil {
		schema = cfg.Space.Universal.Schema
	}
	store, err := wal.OpenStore(p.opts.FS, dir, func(_ wal.RecordRef, payload []byte) error {
		var e rowsEntry
		if json.Unmarshal(payload, &e) != nil || len(e.Rows) == 0 || schema == nil {
			return nil // foreign/corrupt-format record: skip, don't refuse
		}
		rows := make([]table.Row, 0, len(e.Rows))
		for _, raw := range e.Rows {
			row, derr := decodeWireRow(schema, raw)
			if derr != nil {
				return nil
			}
			rows = append(rows, row)
		}
		if _, _, aerr := cfg.Append(rows); aerr != nil {
			// A batch that applied cleanly live but not on replay (e.g.
			// a foreign state dir): record it; the memo predicate will
			// reject the valuations of the versions that never landed.
			p.mu.Lock()
			p.openErrs[hash+"/rows/replay"] = aerr.Error()
			p.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		p.mu.Lock()
		p.openErrs[hash+"/rows"] = err.Error()
		p.mu.Unlock()
		return fmt.Errorf("serve: rows store %.12s degraded to in-memory: %w", hash, err)
	}
	com := wal.NewStoreCommitter(p.committerOptions(), store)
	p.mu.Lock()
	p.rows[hash] = &persistStore{store: store, com: com}
	p.mu.Unlock()
	return nil
}

// AppendRows spills one committed append batch to the shard's rows log
// write-behind, keyed by the table version it committed as.
func (p *Persistence) AppendRows(hash string, version uint64, rows []table.Row) {
	p.mu.Lock()
	st := p.rows[hash]
	p.mu.Unlock()
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
	p.mu.Lock()
	l := p.ledgers[hash]
	p.mu.Unlock()
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
// ledger (through a small LRU). A missing or unreadable record reports
// false — degraded disks degrade to report-less status, never errors.
func (p *Persistence) ReadReport(id string) (*modis.Report, bool) {
	p.mu.Lock()
	if rep, ok := p.reportCache[id]; ok {
		p.mu.Unlock()
		return rep, true
	}
	rref, ok := p.reportRefs[id]
	var l *persistStore
	if ok {
		l = p.ledgers[rref.hash]
	}
	p.mu.Unlock()
	if !ok || l == nil {
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
	p.mu.Lock()
	if len(p.reportOrder) >= reportCacheCap {
		evict := p.reportOrder[0]
		p.reportOrder = p.reportOrder[1:]
		delete(p.reportCache, evict)
	}
	if _, dup := p.reportCache[id]; !dup {
		p.reportCache[id] = e.Report
		p.reportOrder = append(p.reportOrder, id)
	}
	p.mu.Unlock()
	return e.Report, true
}

// Health aggregates every store's condition.
func (p *Persistence) Health() PersistenceHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := PersistenceHealth{
		Enabled: true,
		Healthy: true,
		Dir:     p.opts.Dir,
		Stores:  map[string]wal.Health{},
	}
	for hash, ps := range p.memos {
		sh := ps.com.Health()
		h.Stores[hash+"/memo"] = sh
		if !sh.Healthy {
			h.Healthy = false
		}
	}
	for hash, ps := range p.ledgers {
		sh := ps.com.Health()
		h.Stores[hash+"/jobs"] = sh
		if !sh.Healthy {
			h.Healthy = false
		}
	}
	for hash, ps := range p.rows {
		sh := ps.com.Health()
		h.Stores[hash+"/rows"] = sh
		if !sh.Healthy {
			h.Healthy = false
		}
	}
	if len(p.openErrs) > 0 {
		h.Healthy = false
		h.OpenErrors = map[string]string{}
		for k, v := range p.openErrs {
			h.OpenErrors[k] = v
		}
	}
	return h
}

// allStores snapshots every open store under the lock.
func (p *Persistence) allStores() []*persistStore {
	stores := make([]*persistStore, 0, len(p.memos)+len(p.ledgers)+len(p.rows))
	for _, ps := range p.memos {
		stores = append(stores, ps)
	}
	for _, ps := range p.ledgers {
		stores = append(stores, ps)
	}
	for _, ps := range p.rows {
		stores = append(stores, ps)
	}
	return stores
}

// Flush forces every committer's backlog out now — the test hook for
// "everything enqueued so far is on disk". Reports whether all stores
// fully drained.
func (p *Persistence) Flush() bool {
	p.mu.Lock()
	stores := p.allStores()
	p.mu.Unlock()
	drained := true
	for _, ps := range stores {
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
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	stores := p.allStores()
	p.mu.Unlock()
	for _, ps := range stores {
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
