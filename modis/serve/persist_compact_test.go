package serve_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fst"
	"repro/internal/table"
	"repro/modis/serve"
)

// memoImage renders every memoized valuation — key, perf and feature
// bits, table version — in key order, so two memos compare bit for bit.
func memoImage(ts *fst.TestSet) string {
	var b strings.Builder
	for _, t := range ts.All() {
		fmt.Fprintf(&b, "%x v%d perf", uint64(t.Key), t.Version)
		for _, v := range t.Perf {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		b.WriteString(" feat")
		for _, v := range t.Features {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// snapFiles lists a shard store's snapshot generations.
func snapFiles(tb testing.TB, dir, hash, store string) []string {
	tb.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, hash, store, "snap-*.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	return matches
}

// TestOpenTimeCompaction restarts a shard whose memo and ledger logs
// outgrow CompactBytes, so both fold into a snapshot at open, and holds
// the compacted state to an uncompacted replay of the same directory:
// the memo is bit-identical (valuations an append invalidated stay
// dropped), every job, idempotency key and report reads back, and the
// job in flight at the crash is still recorded failed-as-lost. A second
// restart replays the snapshot generation and must agree again.
func TestOpenTimeCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	hash := shapeHash(t)

	// First incarnation: two keyed jobs, an append that invalidates part
	// of the memo, and a job that never finishes.
	cfgA := newPersistShapeConfig(t)
	pA := openPersist(t, dir, nil)
	schedA := serve.NewScheduler(serve.SchedulerOptions{Persist: pA})
	registerShape(t, schedA, cfgA)
	algos := []string{"bi", "apx"}
	keys := []string{"key-bi", "key-apx"}
	ids := make([]string, len(algos))
	skylines := make([]string, len(algos))
	for i, algo := range algos {
		rec, _, err := schedA.SubmitKeyed(ctx, "shape", algo, keys[i], runOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
		skylines[i] = skylineJSON(t, mustResult(t, rec.Live()))
	}
	memoCold := cfgA.Tests.Len()
	res, err := schedA.AppendRows(ctx, "shape", []table.Row{shapeRow()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidated == 0 {
		t.Fatal("append invalidated nothing; the invalidation assertion would be vacuous")
	}
	pA.AppendSubmitted(hash, "ghost-job", "shape", "bi", "", time.Now())
	if !pA.Flush() {
		t.Fatal("flush did not drain")
	}
	schedA.Close()
	pA.Close()

	// Reference: the same directory replayed without compaction, in a
	// copy so the original keeps its uncompacted logs.
	refDir := t.TempDir()
	if err := os.CopyFS(refDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	cfgRef := newPersistShapeConfig(t)
	pRef := openPersist(t, refDir, nil)
	schedRef := serve.NewScheduler(serve.SchedulerOptions{Persist: pRef})
	registerShape(t, schedRef, cfgRef)
	wantMemo := memoImage(cfgRef.Tests)
	if n := cfgRef.Tests.Len(); n != memoCold-res.Invalidated {
		t.Fatalf("uncompacted replay recovered %d valuations, want %d", n, memoCold-res.Invalidated)
	}
	if got := snapFiles(t, refDir, hash, "memo"); len(got) != 0 {
		t.Fatalf("default CompactBytes compacted the memo: %v", got)
	}
	schedRef.Close()
	pRef.Close()

	for _, round := range []string{"compacting restart", "restart over the snapshot"} {
		cfg := newPersistShapeConfig(t)
		p, err := serve.OpenPersistence(serve.PersistOptions{
			Dir:            dir,
			CommitInterval: 5 * time.Millisecond,
			CompactBytes:   1, // every non-empty log compacts at open
		})
		if err != nil {
			t.Fatal(err)
		}
		sched := serve.NewScheduler(serve.SchedulerOptions{Persist: p})
		registerShape(t, sched, cfg)
		srv := httptest.NewServer(serve.NewServer(sched, serve.ServerOptions{}))
		client := serve.NewClient(srv.URL)

		if h := p.Health(); !h.Healthy {
			t.Fatalf("%s: persistence unhealthy after compaction: %+v", round, h)
		}
		for _, store := range []string{"memo", "jobs"} {
			if got := snapFiles(t, dir, hash, store); len(got) != 1 {
				t.Fatalf("%s: %s snapshots = %v, want exactly one generation", round, store, got)
			}
		}
		if got := snapFiles(t, dir, hash, "rows"); len(got) != 0 {
			t.Fatalf("%s: the rows log was compacted: %v", round, got)
		}
		if got := memoImage(cfg.Tests); got != wantMemo {
			t.Fatalf("%s: memo diverged from the uncompacted replay:\nwant\n%s\ngot\n%s", round, wantMemo, got)
		}
		for i, id := range ids {
			rep, ok := p.ReadReport(id)
			if !ok {
				t.Fatalf("%s: report of %s did not read back", round, id)
			}
			if got := skylineJSON(t, rep); got != skylines[i] {
				t.Fatalf("%s: report of %s diverged:\nwant %s\ngot  %s", round, id, skylines[i], got)
			}
			st, err := client.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != serve.StatusDone || st.IdemKey != keys[i] || st.Report == nil {
				t.Fatalf("%s: recovered job %s = %+v, want done under key %q with its report", round, id, st, keys[i])
			}
			rec, replayed, err := sched.SubmitKeyed(ctx, "shape", algos[i], keys[i], runOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			if !replayed || rec.ID != id {
				t.Fatalf("%s: keyed resubmit = (job %q, replayed=%v), want replay of %q", round, rec.ID, replayed, id)
			}
		}
		st, err := client.Status(ctx, "ghost-job")
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != serve.StatusFailed || !strings.Contains(st.Error, "lost") {
			t.Fatalf("%s: crashed in-flight job = %+v, want failed with a lost error", round, st)
		}

		srv.Close()
		if !p.Flush() {
			t.Fatalf("%s: flush did not drain", round)
		}
		sched.Close()
		p.Close()
	}
}
