// Command modisperf is the repository's benchmark: five seeded,
// self-checking workloads — three in-process through the public modis
// API, two against a real modisd over loopback HTTP — that report the
// same end-to-end metrics, plus a traced pass that reports per-layer
// metrics. See README.md in this directory for what each workload and
// metric is for, and BENCHMARK.json at the repository root for the
// contract the driver runs it under.
//
// One measurement (what run.sh and the driver invoke):
//
//	modisperf -workload serve-warm -seed 7 -seconds 12 -trace 0
//
// prints a table and, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}; with -trace 1 the
// metrics are the per-layer ones and modisperf/out/trace-<workload>.jsonl
// holds the spans. The exit code is non-zero when an output check or the
// durability check failed.
//
// The whole suite, each measurement in a process of its own:
//
//	modisperf -suite -seed 1 [-repeat 2] [-quick] [-record BENCH_11.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// params are the inputs of one measurement.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string // where run.sh put modisd and modisproxy
	scratch  string // state directories and other throw-away files
	outDir   string // traces and digests
}

func tracePath(p params) string {
	return filepath.Join(p.outDir, "trace-"+p.workload+".jsonl")
}

// writeDigests records the reference skyline digest of every cell the
// run checked against, so that a parent and a change run on the same
// seed can be diffed.
func writeDigests(p params, refs map[string]string) error {
	blob, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("digests-%s-seed%d.json", p.workload, p.seed)
	return os.WriteFile(filepath.Join(p.outDir, name), append(blob, '\n'), 0o644)
}

func measure(ctx context.Context, p params) (*measurement, error) {
	run := map[string]func(context.Context, params) (*measurement, error){
		"discover-cold": func(ctx context.Context, p params) (*measurement, error) { return runDiscover(ctx, p, false) },
		"discover-udf":  func(ctx context.Context, p params) (*measurement, error) { return runDiscover(ctx, p, true) },
		"engine-aging":  runAging,
		"serve-warm":    runServeWarm,
		"serve-append":  runServeAppend,
	}[p.workload]
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", p.workload, workloadNames)
	}
	m, err := run(ctx, p)
	if err != nil || !p.trace {
		return m, err
	}
	// The direct probes do not depend on the workload; every traced run
	// ends with them, after its system under test has stopped.
	return m, runProbes(p, m)
}

func main() {
	var (
		p      params
		trace  = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		suite  = flag.Bool("suite", false, "run every workload, untraced and traced, each in its own process")
		repeat = flag.Int("repeat", 1, "with -suite: sets of untraced runs per workload; 2 or more also reports whether the sets agree")
		quick  = flag.Bool("quick", false, "with -suite: one tenth of the run length")
		record = flag.String("record", "", "with -suite: write the record (medians, host, seed) to this file")
	)
	flag.StringVar(&p.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&p.seed, "seed", 1, "seed of every generated input: data, job order, appended rows")
	flag.Float64Var(&p.seconds, "seconds", 12, "length of the timed window")
	flag.StringVar(&p.binDir, "bin", ".bench_build/bin", "directory holding the modisd and modisproxy binaries")
	flag.StringVar(&p.scratch, "scratch", ".bench_build/tmp", "directory for throw-away state")
	flag.StringVar(&p.outDir, "out", "modisperf/out", "directory for traces and digests")
	flag.Parse()
	p.trace = *trace != 0
	if flag.NArg() > 0 || p.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "modisperf: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}
	for _, dir := range []string{p.scratch, p.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "modisperf:", err)
			os.Exit(1)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *suite {
		if *quick {
			p.seconds /= 10
		}
		ok, err := runSuite(ctx, p, *repeat, *record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "modisperf:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	m, err := measure(ctx, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modisperf:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	if err := m.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "modisperf:", err)
		os.Exit(1)
	}
	if !m.correct() {
		os.Exit(1)
	}
}
