// Command modis runs skyline dataset discovery over CSV source tables:
// given a target column, a model family and a set of performance
// measures, it generates an ε-skyline set of datasets and writes them
// out as CSV files. Searches run through the public engine
// (repro/modis): algorithms are picked by key, runs honor
// -timeout via context, and -json emits the machine-readable Report.
//
// With -remote the same CLI drives a modisd daemon instead of running
// in-process: the flags become a job submission against one of the
// daemon's named workloads, progress streams back over SSE, and the
// report is fetched when the job completes (skyline CSVs are not
// materialized remotely — the daemon owns the data; use -json for the
// full report).
//
// Usage:
//
//	modis -tables water.csv,basin.csv -target ci_index -model gbm \
//	      -algo bi -eps 0.1 -maxl 6 -n 300 -out ./skyline
//	modis -tables water.csv -target ci_index -json -timeout 30s
//	modis -remote localhost:8080 -workload t3 -algo bi -n 300 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/table"
	"repro/modis"
	"repro/modis/serve"
)

func main() {
	var (
		tablesFlag = flag.String("tables", "", "comma-separated CSV files (required)")
		target     = flag.String("target", "", "target column name (required)")
		model      = flag.String("model", "gbm", "model family: gbm|forest|histgbm|linear|logistic")
		algo       = flag.String("algo", "bi", "algorithm: "+strings.Join(modis.Algorithms(), "|"))
		eps        = flag.Float64("eps", 0.1, "epsilon of the ε-skyline")
		maxl       = flag.Int("maxl", 6, "maximum operator path length")
		n          = flag.Int("n", 300, "valuation budget N")
		k          = flag.Int("k", 5, "diversified set size (div)")
		alpha      = flag.Float64("alpha", 0.5, "diversification balance (div)")
		adomK      = flag.Int("adomk", 8, "max cluster literals per attribute")
		parallel   = flag.Int("parallel", 0, "valuation workers per run: model inferences of independent candidate datasets run concurrently (0 = all CPUs, 1 = sequential; results are identical either way; local runs only)")
		outDir     = flag.String("out", "skyline_out", "output directory for skyline CSVs")
		surrogate  = flag.Bool("surrogate", true, "use the MO-GBM performance estimator")
		describe   = flag.Bool("describe", false, "print per-column profiles of the universal table")
		timeout    = flag.Duration("timeout", 0, "search deadline (0 = none); expiry aborts with context.DeadlineExceeded")
		jsonOut    = flag.Bool("json", false, "print the run Report as JSON on stdout (status goes to stderr)")
		progress   = flag.Bool("progress", false, "stream per-level search progress to stderr")
		remote     = flag.String("remote", "", "modisd address; run the job on the daemon instead of in-process")
		remoteWl   = flag.String("workload", "", "daemon workload name to run against (-remote mode)")
	)
	flag.Parse()

	if *remote != "" {
		runRemote(*remote, *remoteWl, *algo, *n, *eps, *maxl, *k, *alpha, *timeout, *jsonOut, *progress)
		return
	}

	if *tablesFlag == "" || *target == "" {
		fmt.Fprintln(os.Stderr, "modis: -tables and -target are required")
		flag.Usage()
		os.Exit(2)
	}

	// Human-readable chatter goes to stdout normally, but to stderr
	// under -json so stdout stays one parseable document.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	var tables []*table.Table
	for _, path := range strings.Split(*tablesFlag, ",") {
		path = strings.TrimSpace(path)
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		t, err := table.ReadCSV(name, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		tables = append(tables, t)
		fmt.Fprintf(info, "loaded %s\n", t)
	}

	w, err := datagen.NewCustomWorkload(datagen.CustomConfig{
		Tables:    tables,
		Target:    *target,
		ModelKind: *model,
		AdomK:     *adomK,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "universal table: %d rows, %d cols; search space: %d entries\n",
		w.Lake.Universal.NumRows(), w.Lake.Universal.NumCols(), w.Space.Size())
	if *describe {
		if err := w.Lake.Universal.WriteDescription(info); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []modis.Option{
		modis.WithBudget(*n),
		modis.WithEpsilon(*eps),
		modis.WithMaxLevel(*maxl),
		modis.WithK(*k),
		modis.WithAlpha(*alpha),
		modis.WithSeed(1),
		modis.WithParallelism(*parallel),
	}
	if *progress {
		opts = append(opts, modis.WithProgress(func(ev modis.Event) {
			fmt.Fprintf(os.Stderr, "progress: level=%d frontier=%d valuated=%d skyline=%d done=%v\n",
				ev.Level, ev.Frontier, ev.Valuated, ev.SkylineSize, ev.Done)
		}))
	}

	rep, err := modis.NewEngine(w.NewConfig(*surrogate)).Run(ctx, *algo, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "valuated %d states (%d exact model calls) in %v; skyline size %d\n",
		rep.Valuated, rep.ExactCalls, rep.Wall.Round(1e6), len(rep.Skyline))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for i, c := range rep.Skyline {
		d := w.Space.Materialize(c.Bits)
		path := filepath.Join(*outDir, fmt.Sprintf("skyline_%02d.csv", i+1))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := d.WriteCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(info, "  %s: perf=%v size=(%d,%d)\n", path, c.Perf, d.NumRows(), d.NumCols())
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
}

// runRemote submits the run to a modisd daemon and reports back: the
// same algorithm and search flags (not -parallel: the daemon's pool
// runs the inferences), a named daemon-side workload instead of local
// CSVs.
func runRemote(addr, workload, algo string, n int, eps float64, maxl, k int, alpha float64, timeout time.Duration, jsonOut, progress bool) {
	if workload == "" {
		fmt.Fprintln(os.Stderr, "modis: -remote needs -workload (try GET /v1/workloads on the daemon)")
		os.Exit(2)
	}
	ctx := context.Background()
	cl := serve.NewClient(addr)
	info := os.Stdout
	if jsonOut {
		info = os.Stderr
	}

	seed := int64(1)
	req := serve.SubmitRequest{
		Workload:  workload,
		Algorithm: algo,
		Options: &serve.JobOptions{
			Budget:   &n,
			Epsilon:  &eps,
			MaxLevel: &maxl,
			K:        &k,
			Alpha:    &alpha,
			Seed:     &seed,
		},
		TimeoutMS: timeout.Milliseconds(),
	}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "submitted %s (%s on %s)\n", st.JobID, st.Algorithm, workload)

	if progress {
		if _, err := cl.Events(ctx, st.JobID, func(ev modis.Event) {
			fmt.Fprintf(os.Stderr, "progress: level=%d frontier=%d valuated=%d skyline=%d done=%v\n",
				ev.Level, ev.Frontier, ev.Valuated, ev.SkylineSize, ev.Done)
		}); err != nil {
			fatal(err)
		}
	}
	final, err := cl.Wait(ctx, st.JobID, 100*time.Millisecond)
	if err != nil {
		fatal(err)
	}
	switch final.Status {
	case serve.StatusDone:
	default:
		fatal(fmt.Errorf("job %s ended %s: %s", st.JobID, final.Status, final.Error))
	}
	rep := final.Report
	fmt.Fprintf(info, "valuated %d states (%d exact model calls) in %v (queued %v); skyline size %d\n",
		rep.Valuated, rep.ExactCalls, rep.Wall.Round(1e6), rep.Queued.Round(1e6), len(rep.Skyline))
	for i, c := range rep.Skyline {
		fmt.Fprintf(info, "  candidate %02d: perf=%v entries=%d\n", i+1, c.Perf, c.Ones)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	msg := err.Error()
	// Engine and option errors already carry the package prefix.
	if !strings.HasPrefix(msg, "modis:") {
		msg = "modis: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
