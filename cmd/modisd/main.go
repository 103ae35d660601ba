// Command modisd is the MODis serving daemon: it loads a catalog of
// discovery workloads and serves the asynchronous job API over HTTP —
// submit with POST /v1/jobs, observe with GET /v1/jobs/{id} and the
// /events SSE stream, cancel with DELETE. Concurrent jobs over one
// workload share an engine (memoized valuations, single-flighted
// while in flight) and run their exact inferences on the workload's
// queue in one daemon-wide worker pool; see docs/serving.md for the
// protocol and curl examples.
//
// Every workload is registered under its canonical descriptor
// (repro/modis/workload): the descriptor's content hash is the shard
// identity the engine pool, the state directory (state-dir/<hash>/…),
// and the modisproxy routing ring all key by, so two daemons that
// build the same workload agree on who owns it without coordinating.
//
// Workloads come from two sources, combinable:
//
//	modisd -tasks t3,t1 -rows 140             # built-in paper tasks
//	modisd -tables water.csv -target ci_index # CSV-backed custom workload
//
// On SIGINT/SIGTERM the daemon stops accepting jobs, drains the ones
// in flight (bounded by -drain), and exits.
//
// Usage:
//
//	modisd -addr :8080 -tasks t3 -rows 140
//	modis -remote localhost:8080 -workload t3 -algo bi   # CLI against it
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/table"
	"repro/modis/serve"
	"repro/modis/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		advertise = flag.String("advertise", "", "address peers reach this node on (reported in /healthz; default: -addr)")
		tasks     = flag.String("tasks", "", "comma-separated built-in workloads to serve: t1,t2,t3,t4,t5")
		rows      = flag.Int("rows", 0, "row scale of built-in tasks (0 = task defaults)")
		tablesArg = flag.String("tables", "", "comma-separated CSV files of a custom workload")
		target    = flag.String("target", "", "target column of the custom workload")
		model     = flag.String("model", "gbm", "model family of the custom workload: gbm|forest|histgbm|linear|logistic")
		adomK     = flag.Int("adomk", 8, "max cluster literals per attribute (custom workload)")
		custom    = flag.String("workload", "custom", "catalog name of the custom workload")
		surrogate = flag.Bool("surrogate", true, "use the MO-GBM performance estimator")
		workers   = flag.Int("workers", 0, "fixed worker count of the daemon-global inference pool (0 = all CPUs)")
		parallel  = flag.Int("parallel", 0, "max pool workers one workload shard may occupy at once (0 = whole pool)")
		maxJobs   = flag.Int("max-concurrent", 0, "max searches executing at once; excess jobs queue (0 = unbounded)")
		maxQueue  = flag.Int("max-queue", 0, "admission-queue depth past which submits shed with 503 + Retry-After (0 = unbounded; needs -max-concurrent)")
		maxQWait  = flag.Duration("max-queue-wait", 0, "max time a queued job waits for an execution slot before it is shed (0 = forever)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		appDrain  = flag.Duration("append-drain", 0, "max time a row append waits for a shard's in-flight runs to finish before rejecting with 503 (0 = 30s default; negative = no bound)")

		stateDir  = flag.String("state-dir", "", "directory for crash-safe state, one <hash>/ subdirectory per workload shard; empty = in-memory only")
		commitInt = flag.Duration("commit-interval", 100*time.Millisecond, "max latency before pending state records are committed to disk")
		commitThr = flag.Int("commit-threshold", 64, "pending state records that force an immediate commit")
		ledgerWin = flag.Int("ledger-window", 128, "finished jobs kept fully in memory; older ones are served from the on-disk ledger, or without -state-dir keep only their status")
	)
	flag.Parse()

	built, err := buildCatalog(*tasks, *rows, *tablesArg, *target, *model, *adomK, *custom, *surrogate)
	if err != nil {
		fatal(err)
	}
	if len(built) == 0 {
		fatal(errors.New("no workloads: give -tasks and/or -tables/-target"))
	}

	// Crash-safe state: each registered shard recovers its memo (a
	// restarted daemon warm-starts from its persisted valuations) and
	// its job ledger from state-dir/<hash>/. Persistence failures are
	// never fatal — a store that can't open leaves that shard in-memory
	// and shows up in /healthz.
	var persist *serve.Persistence
	if *stateDir != "" {
		persist, err = serve.OpenPersistence(serve.PersistOptions{
			Dir:             *stateDir,
			CommitInterval:  *commitInt,
			CommitThreshold: *commitThr,
		})
		if err != nil {
			fatal(err)
		}
	}

	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:         *workers,
		Parallelism:     *parallel,
		MaxConcurrent:   *maxJobs,
		MaxQueue:        *maxQueue,
		MaxQueueWait:    *maxQWait,
		AppendDrainWait: *appDrain,
		Persist:         persist,
		LedgerWindow:    *ledgerWin,
	})
	for _, b := range built {
		if err := sched.Register(b.Desc, b.Cfg); err != nil {
			fatal(err)
		}
		if persist != nil {
			fmt.Fprintf(os.Stderr, "modisd: workload %s (shard %s) warm-starts with %d memoized valuations\n",
				b.Desc.Name, b.Desc.Short(), b.Cfg.Tests.Len())
		}
	}
	adv := *advertise
	if adv == "" {
		adv = *addr
	}
	srv := serve.NewServer(sched, serve.ServerOptions{Advertise: adv})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()
	var names []string
	for _, b := range built {
		names = append(names, fmt.Sprintf("%s[%s]", b.Desc.Name, b.Desc.Short()))
	}
	fmt.Fprintf(os.Stderr, "modisd: serving %s on %s\n", strings.Join(names, ", "), ln.Addr())

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "modisd: shutting down, draining in-flight jobs")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting, then wait for running jobs; a missed deadline
	// cancels the stragglers so the process still exits cleanly.
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "modisd: http shutdown: %v\n", err)
	}
	if err := sched.Drain(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "modisd: %v; cancelling\n", err)
		sched.CancelAll()
	}
	srv.Close()
	sched.Close()
	if persist != nil {
		// Final flush: everything memoized or finished so far becomes
		// durable before the process exits.
		persist.Close()
	}
	fmt.Fprintln(os.Stderr, "modisd: bye")
}

// buildCatalog assembles the workloads to register, each with its
// canonical descriptor.
func buildCatalog(tasks string, rows int, tablesArg, target, model string, adomK int, customName string, surrogate bool) ([]*workload.Built, error) {
	var out []*workload.Built
	seen := map[string]bool{}
	if tasks != "" {
		for _, name := range strings.Split(tasks, ",") {
			name = strings.ToLower(strings.TrimSpace(name))
			if name == "" {
				continue
			}
			b, err := workload.BuildTask(name, rows, surrogate)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
			seen[b.Desc.Name] = true
		}
	}
	if tablesArg == "" && target == "" {
		return out, nil
	}
	if tablesArg == "" || target == "" {
		return nil, errors.New("custom workloads need both -tables and -target")
	}
	var tables []*table.Table
	for _, path := range strings.Split(tablesArg, ",") {
		path = strings.TrimSpace(path)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		t, err := table.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	if seen[customName] {
		return nil, fmt.Errorf("workload name %q already taken by a built-in task", customName)
	}
	b, err := workload.FromTables(tables, workload.CustomOptions{
		Name:      customName,
		Target:    target,
		Model:     model,
		AdomK:     adomK,
		Surrogate: surrogate,
	})
	if err != nil {
		return nil, err
	}
	return append(out, b), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "modisd: %v\n", err)
	os.Exit(1)
}
