package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fst"
	"repro/internal/wal"
	"repro/modis"
	"repro/modis/serve"
)

// newPersistShapeConfig is newShapeConfig with the test set
// pre-initialized, the memo a shard's persisted valuations replay into.
func newPersistShapeConfig(tb testing.TB) *fst.Config {
	tb.Helper()
	cfg := newShapeConfig(tb, 0)
	cfg.Tests = fst.NewTestSet()
	return cfg
}

// shapeHash is the shape workload's descriptor hash — the shard
// identity its state directory is keyed by. Every shape config is
// structurally identical, so every incarnation lands on the same hash;
// that is the cross-restart contract these tests lean on.
func shapeHash(tb testing.TB) string {
	tb.Helper()
	return describeShape(tb, newShapeConfig(tb, 0)).Hash()
}

// openPersist opens a persistence rooted at dir with test-friendly
// commit knobs (tiny interval so write-behind lag never dominates a
// test) over the given filesystem (nil = the real one).
func openPersist(tb testing.TB, dir string, fsys wal.FS) *serve.Persistence {
	tb.Helper()
	p, err := serve.OpenPersistence(serve.PersistOptions{
		Dir:            dir,
		CommitInterval: 5 * time.Millisecond,
		FS:             fsys,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitUntil polls cond to true within a deadline.
func waitUntil(tb testing.TB, d time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// TestColdWarmDeterminism is the restart contract end to end: a cold
// incarnation runs every algorithm on a fresh workload and persists its
// memo; a warm incarnation — fresh config, same state directory —
// recovers every memoized valuation bit for bit, reproduces every
// skyline byte for byte, and performs zero exact inferences doing so. Registration alone does the recovery: the memo
// lives under the shard's descriptor hash, and both incarnations derive
// the same hash from structurally identical configs.
func TestColdWarmDeterminism(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Cold incarnation.
	cfgA := newPersistShapeConfig(t)
	pA := openPersist(t, dir, nil)
	schedA := serve.NewScheduler(serve.SchedulerOptions{Persist: pA})
	registerShape(t, schedA, cfgA)
	coldSkyline := map[string]string{}
	for _, algo := range allAlgorithms() {
		job, err := schedA.Submit(ctx, "shape", algo, runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustResult(t, job)
		if rep.ExactCalls == 0 && algo == allAlgorithms()[0] {
			t.Fatalf("cold %s run made no exact inferences; the warm assertion below would be vacuous", algo)
		}
		coldSkyline[algo] = skylineJSON(t, rep)
	}
	coldTests := cfgA.Tests.All()
	if len(coldTests) == 0 {
		t.Fatal("cold incarnation memoized nothing")
	}
	if !pA.Flush() {
		t.Fatal("cold flush did not drain")
	}
	pA.Close()

	// Warm incarnation: fresh config (own empty test set), same state
	// directory. Register recovers the shard's memo before serving.
	cfgB := newPersistShapeConfig(t)
	pB := openPersist(t, dir, nil)
	defer pB.Close()
	schedB := serve.NewScheduler(serve.SchedulerOptions{Persist: pB})
	registerShape(t, schedB, cfgB)
	warmTests := map[fst.StateKey]*fst.Test{}
	for _, tt := range cfgB.Tests.All() {
		warmTests[tt.Key] = tt
	}
	if len(warmTests) != len(coldTests) {
		t.Fatalf("recovered %d memoized valuations, cold made %d", len(warmTests), len(coldTests))
	}
	for _, cold := range coldTests {
		warm, ok := warmTests[cold.Key]
		if !ok {
			t.Fatalf("cold valuation %x was not recovered", cold.Key)
		}
		if len(warm.Perf) != len(cold.Perf) {
			t.Fatalf("valuation %x: perf arity diverged", cold.Key)
		}
		for j := range cold.Perf {
			if math.Float64bits(warm.Perf[j]) != math.Float64bits(cold.Perf[j]) {
				t.Fatalf("valuation %x measure %d: recovered %v, cold %v (not bit-exact)", cold.Key, j, warm.Perf[j], cold.Perf[j])
			}
		}
	}

	for _, algo := range allAlgorithms() {
		job, err := schedB.Submit(ctx, "shape", algo, runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustResult(t, job)
		if got := skylineJSON(t, rep); got != coldSkyline[algo] {
			t.Fatalf("warm %s skyline diverged:\ncold %s\nwarm %s", algo, coldSkyline[algo], got)
		}
		if rep.ExactCalls != 0 {
			t.Fatalf("warm %s run made %d exact inferences, want 0 (everything was memoized)", algo, rep.ExactCalls)
		}
	}
	if n := cfgB.Tests.Len(); n != len(coldTests) {
		t.Fatalf("warm runs grew the memo to %d entries, want %d (no new valuations)", n, len(coldTests))
	}
}

// memoLogPath locates the single memo log file of the shard.
func memoLogPath(tb testing.TB, dir, hash string) string {
	tb.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, hash, "memo", "log-*.wal"))
	if err != nil || len(matches) != 1 {
		tb.Fatalf("memo log files: %v (err %v), want exactly 1", matches, err)
	}
	return matches[0]
}

// TestMemoRecoveryTolerantOfCorruption takes one persisted memo through
// the SIGKILL-shaped corruption ladder — garbage appended past the last
// record, a torn tail cutting the final record, a bit flip in the
// middle — and recovery must never refuse to start and never load a
// corrupt record: each reopen yields a clean prefix and a run that
// still reproduces the cold skyline.
func TestMemoRecoveryTolerantOfCorruption(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cfgA := newPersistShapeConfig(t)
	pA := openPersist(t, dir, nil)
	schedA := serve.NewScheduler(serve.SchedulerOptions{Persist: pA})
	registerShape(t, schedA, cfgA)
	job, err := schedA.Submit(ctx, "shape", "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	coldSky := skylineJSON(t, mustResult(t, job))
	coldLen := cfgA.Tests.Len()
	if !pA.Flush() {
		t.Fatal("cold flush did not drain")
	}
	pA.Close()
	logPath := memoLogPath(t, dir, shapeHash(t))

	reopenAndRun := func(name string) (recovered int) {
		t.Helper()
		cfg := newPersistShapeConfig(t)
		p := openPersist(t, dir, nil)
		defer p.Close()
		sched := serve.NewScheduler(serve.SchedulerOptions{Persist: p})
		registerShape(t, sched, cfg)
		recovered = cfg.Tests.Len()
		job, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
		if err != nil {
			t.Fatalf("%s: submit: %v", name, err)
		}
		if got := skylineJSON(t, mustResult(t, job)); got != coldSky {
			t.Fatalf("%s: skyline diverged after recovery:\ncold %s\ngot  %s", name, coldSky, got)
		}
		if !p.Flush() {
			t.Fatalf("%s: flush did not drain", name)
		}
		return recovered
	}

	// Garbage appended past the last record: the tail is truncated, every
	// real record survives.
	blob, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, append(append([]byte(nil), blob...), 0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := reopenAndRun("garbage tail"); n != coldLen {
		t.Fatalf("garbage tail: recovered %d records, want %d", n, coldLen)
	}

	// Torn tail: the final record is cut mid-payload (what SIGKILL
	// mid-write leaves). Recovery keeps the prefix; the rerun revaluates
	// the lost state and re-persists it.
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	if n := reopenAndRun("torn tail"); n != coldLen-1 {
		t.Fatalf("torn tail: recovered %d records, want %d", n, coldLen-1)
	}

	// Bit flip mid-file: the damaged record fails its checksum; recovery
	// keeps the records before it and never loads the corrupt one.
	blob, err = os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(logPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := reopenAndRun("bit flip"); n >= coldLen {
		t.Fatalf("bit flip: recovered %d records, want fewer than %d", n, coldLen)
	}
}

// TestPersistenceFaultsDegradeGracefully breaks the disk under a live
// run — fsync failures first, then ENOSPC — and asserts the graceful-
// degradation contract: the run itself never fails, healthz turns
// degraded, and once the disk heals everything retried lands so the
// next incarnation recovers the full memo.
func TestPersistenceFaultsDegradeGracefully(t *testing.T) {
	for _, tc := range []struct {
		name   string
		arm    func(ffs *wal.FaultFS)
		disarm func(ffs *wal.FaultFS)
	}{
		{
			name:   "fsync failure",
			arm:    func(ffs *wal.FaultFS) { ffs.SetSyncErr(errors.New("injected: fsync lost")) },
			disarm: func(ffs *wal.FaultFS) { ffs.SetSyncErr(nil) },
		},
		{
			name:   "enospc",
			arm:    func(ffs *wal.FaultFS) { ffs.SetWriteBudget(0) },
			disarm: func(ffs *wal.FaultFS) { ffs.SetWriteBudget(-1) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			ffs := wal.NewFaultFS(wal.OsFS{})

			cfg := newPersistShapeConfig(t)
			p := openPersist(t, dir, ffs)
			sched := serve.NewScheduler(serve.SchedulerOptions{Persist: p})
			registerShape(t, sched, cfg)
			srv := httptest.NewServer(serve.NewServer(sched, serve.ServerOptions{}))
			defer srv.Close()

			// Break the disk, then run: the search must finish as if
			// nothing happened.
			tc.arm(ffs)
			job, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			rep := mustResult(t, job)
			if len(rep.Skyline) == 0 {
				t.Fatal("run under injected disk fault produced no skyline")
			}

			// The failure surfaces through healthz, not through the run.
			waitUntil(t, 5*time.Second, "degraded health", func() bool {
				return !p.Health().Healthy
			})
			var hr serve.HealthResponse
			if err := getJSON(srv.URL+"/healthz", &hr); err != nil {
				t.Fatal(err)
			}
			if hr.Status != "degraded" || hr.Persistence == nil || hr.Persistence.Healthy {
				t.Fatalf("healthz under fault = %+v, want degraded", hr)
			}

			// Heal: the retained backlog drains and health recovers.
			tc.disarm(ffs)
			waitUntil(t, 5*time.Second, "healed flush", func() bool {
				return p.Flush() && p.Health().Healthy
			})
			if err := getJSON(srv.URL+"/healthz", &hr); err != nil {
				t.Fatal(err)
			}
			if hr.Status != "ok" {
				t.Fatalf("healthz after heal = %q, want ok", hr.Status)
			}
			memoLen := cfg.Tests.Len()
			p.Close()

			// Nothing enqueued during the outage was lost: a fresh
			// incarnation recovers the complete memo.
			cfg2 := newPersistShapeConfig(t)
			p2 := openPersist(t, dir, nil)
			defer p2.Close()
			p2.OpenShard(shapeHash(t), cfg2)
			if n := cfg2.Tests.Len(); n != memoLen {
				t.Fatalf("recovered %d memoized valuations after healed outage, want %d", n, memoLen)
			}
		})
	}
}

// TestLedgerRecoveryAndPagination restarts the daemon state and walks
// the recovered ledger through the paginated listing: finished jobs
// reappear with their reports readable from disk, a job that was in
// flight at the crash is recorded failed-as-lost, and limit/cursor
// paging covers the record exactly once.
func TestLedgerRecoveryAndPagination(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// First incarnation: three finished jobs plus one that never
	// finishes (its submitted entry is the only trace — the shape a
	// SIGKILL mid-run leaves).
	cfgA := newPersistShapeConfig(t)
	pA := openPersist(t, dir, nil)
	schedA := serve.NewScheduler(serve.SchedulerOptions{Persist: pA})
	registerShape(t, schedA, cfgA)
	hash := shapeHash(t)
	algos := []string{"bi", "apx", "exact"}
	ids := make([]string, len(algos))
	skylines := make([]string, len(algos))
	for i, algo := range algos {
		job, err := schedA.Submit(ctx, "shape", algo, runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID()
		skylines[i] = skylineJSON(t, mustResult(t, job))
	}
	pA.AppendSubmitted(hash, "ghost-job", "shape", "bi", "", time.Now())
	// 3 submitted + 3 finished + 1 ghost submitted = 7 durable records.
	waitUntil(t, 5*time.Second, "ledger flushed", func() bool {
		pA.Flush()
		return pA.Health().Stores[hash+"/jobs"].Flushed >= 7
	})
	pA.Close()

	// Second incarnation: registering the shard recovers its ledger.
	cfgB := newPersistShapeConfig(t)
	pB := openPersist(t, dir, nil)
	defer pB.Close()
	schedB := serve.NewScheduler(serve.SchedulerOptions{Persist: pB})
	registerShape(t, schedB, cfgB)
	srv := httptest.NewServer(serve.NewServer(schedB, serve.ServerOptions{}))
	defer srv.Close()
	client := serve.NewClient(srv.URL)

	// Page through with limit 2: 4 recovered jobs in submission order.
	var listed []string
	cursor := ""
	pages := 0
	for {
		page, err := client.List(ctx, cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, st := range page.Jobs {
			listed = append(listed, st.JobID)
			if st.Report != nil {
				t.Fatalf("list page carries a report for %s; the listing is a summary", st.JobID)
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	wantIDs := append(append([]string(nil), ids...), "ghost-job")
	if len(listed) != len(wantIDs) || pages != 2 {
		t.Fatalf("paged listing = %v over %d pages, want %v over 2", listed, pages, wantIDs)
	}
	for i := range wantIDs {
		if listed[i] != wantIDs[i] {
			t.Fatalf("recovered order[%d] = %s, want %s", i, listed[i], wantIDs[i])
		}
	}

	// An unknown cursor yields an empty page, not an error.
	page, err := client.List(ctx, "no-such-job", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 || page.NextCursor != "" {
		t.Fatalf("unknown cursor page = %+v, want empty", page)
	}

	// Finished jobs resolve with their reports read back from disk.
	for i, id := range ids {
		st, err := client.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != serve.StatusDone || st.Report == nil {
			t.Fatalf("recovered job %s = %+v, want done with report", id, st)
		}
		if got := skylineJSON(t, st.Report); got != skylines[i] {
			t.Fatalf("recovered report of %s diverged:\nwant %s\ngot  %s", id, skylines[i], got)
		}
	}

	// The in-flight job is failed-as-lost, never resurrected as running.
	st, err := client.Status(ctx, "ghost-job")
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusFailed || !strings.Contains(st.Error, "lost") {
		t.Fatalf("crashed in-flight job = %+v, want failed with a lost error", st)
	}
}

// TestLedgerWindowArchivesHandles bounds resident memory: once a
// finished job's ledger record is durable and it falls beyond the
// window, its in-memory handle is dropped — and its status and report
// remain fully resolvable from disk.
func TestLedgerWindowArchivesHandles(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cfg := newPersistShapeConfig(t)
	p := openPersist(t, dir, nil)
	defer p.Close()
	sched := serve.NewScheduler(serve.SchedulerOptions{Persist: p, LedgerWindow: 1})
	registerShape(t, sched, cfg)
	srv := httptest.NewServer(serve.NewServer(sched, serve.ServerOptions{}))
	defer srv.Close()
	client := serve.NewClient(srv.URL)

	var ids []string
	var skylines []string
	for i := 0; i < 3; i++ {
		job, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
		skylines = append(skylines, skylineJSON(t, mustResult(t, job)))
	}

	// With a window of 1, the two older finished jobs archive once
	// their records are durable.
	waitUntil(t, 5*time.Second, "older handles archived", func() bool {
		p.Flush()
		recs := sched.Jobs()
		return recs[0].Live() == nil && recs[1].Live() == nil
	})

	for i, id := range ids {
		st, err := client.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != serve.StatusDone || st.Report == nil {
			t.Fatalf("archived job %s = %+v, want done with report", id, st)
		}
		if got := skylineJSON(t, st.Report); got != skylines[i] {
			t.Fatalf("archived report of %s diverged", id)
		}
	}
}

// TestLedgerWindowEvictsWithoutPersistence: a scheduler without a
// state directory evicts by the same window, immediately on finish, so
// a stateless daemon's resident jobs stay bounded. An evicted job keeps
// its status; its report is gone.
func TestLedgerWindowEvictsWithoutPersistence(t *testing.T) {
	ctx := context.Background()
	sched := serve.NewScheduler(serve.SchedulerOptions{LedgerWindow: 4})
	registerShape(t, sched, newShapeConfig(t, 0))
	srv := httptest.NewServer(serve.NewServer(sched, serve.ServerOptions{}))
	defer srv.Close()

	for i := 0; i < 10; i++ {
		job, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		mustResult(t, job)
	}
	live := func() int {
		n := 0
		for _, rec := range sched.Jobs() {
			if rec.Live() != nil {
				n++
			}
		}
		return n
	}
	waitUntil(t, 5*time.Second, "at most 4 live records", func() bool { return live() <= 4 })

	oldest := sched.Jobs()[0]
	st, err := serve.NewClient(srv.URL).Status(ctx, oldest.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusDone || st.Report != nil {
		t.Fatalf("evicted job = status %q, report %v; want done without a report", st.Status, st.Report != nil)
	}
}

// TestLedgerReplaysRetiredReportField pins lenient report decoding: a
// ledger written by an older build, whose reports carry fields this
// build no longer has ("batched", from the retired frontier alignment,
// and "options.prune", from the retired second spelling of "nobi"),
// still replays, and the job's report reads back with every other
// field intact.
func TestLedgerReplaysRetiredReportField(t *testing.T) {
	dir := t.TempDir()
	hash := shapeHash(t)
	rep, err := modis.NewEngine(newShapeConfig(t, 0)).Run(context.Background(), "bi", runOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatal(err)
	}
	old["batched"] = true
	old["options"].(map[string]any)["prune"] = true
	entry, err := json.Marshal(map[string]any{
		"kind": "finished", "id": "old-job", "workload": "shape", "algorithm": "bi",
		"submitted": time.Now(), "status": serve.StatusDone, "report": old,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.OpenStore(wal.OsFS{}, filepath.Join(dir, hash, "jobs"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(entry); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	p := openPersist(t, dir, nil)
	defer p.Close()
	sched := serve.NewScheduler(serve.SchedulerOptions{Persist: p})
	defer sched.Close()
	registerShape(t, sched, newShapeConfig(t, 0))
	got, ok := p.ReadReport("old-job")
	if !ok {
		t.Fatal("a report holding a retired field did not read back")
	}
	blob, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(want) {
		t.Fatalf("replayed report changed:\nwant %s\ngot  %s", want, blob)
	}
}

// ledgerReadCounter counts positional reads of a shard's ledger files —
// what reading an archived job's report back costs the disk.
type ledgerReadCounter struct {
	wal.FS
	reads atomic.Int64
}

func (c *ledgerReadCounter) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(filepath.Dir(name)) != "jobs" {
		return f, err
	}
	return &countedFile{File: f, reads: &c.reads}, nil
}

type countedFile struct {
	wal.File
	reads *atomic.Int64
}

func (f *countedFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.File.ReadAt(p, off)
}

// TestSummariesReadNoReports: the job listing and the event stream's
// end event are summaries, so they never read an archived job's report
// back from the ledger; the job's status still returns it.
func TestSummariesReadNoReports(t *testing.T) {
	ctx := context.Background()
	fsys := &ledgerReadCounter{FS: wal.OsFS{}}
	p := openPersist(t, t.TempDir(), fsys)
	defer p.Close()
	sched := serve.NewScheduler(serve.SchedulerOptions{Persist: p, LedgerWindow: 1})
	defer sched.Close()
	registerShape(t, sched, newPersistShapeConfig(t))
	srv := httptest.NewServer(serve.NewServer(sched, serve.ServerOptions{}))
	defer srv.Close()
	client := serve.NewClient(srv.URL)

	const jobs = 6
	var ids []string
	for i := 0; i < jobs; i++ {
		job, err := sched.Submit(ctx, "shape", "bi", runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
		mustResult(t, job)
	}
	waitUntil(t, 5*time.Second, "all but the newest job archived", func() bool {
		p.Flush()
		recs := sched.Jobs()
		for _, rec := range recs[:jobs-1] {
			if rec.Live() != nil {
				return false
			}
		}
		return true
	})

	fsys.reads.Store(0)
	page, err := client.List(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != jobs {
		t.Fatalf("listed %d jobs, want %d", len(page.Jobs), jobs)
	}
	final, err := client.Events(ctx, ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.Status != serve.StatusDone || final.Report != nil {
		t.Fatalf("end event of an archived job = %+v, want done without a report", final)
	}
	if n := fsys.reads.Load(); n != 0 {
		t.Fatalf("listing and end event made %d ledger reads, want 0", n)
	}

	st, err := client.Status(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusDone || st.Report == nil {
		t.Fatalf("archived job status = %+v, want done with its report", st)
	}
	if fsys.reads.Load() == 0 {
		t.Fatal("status returned a report without reading the ledger; the zero-read assertion above is vacuous")
	}
}
