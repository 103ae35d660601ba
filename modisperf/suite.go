package main

// The suite: every workload, untraced and traced, each measurement in a
// process of its own (exactly what the driver runs), with the steadiness
// arithmetic the driver applies — per set of runs the median and
// quartiles of every end-to-end metric, its spread against its bound,
// and whether a second set's median is no worse than the first's by more
// than the bound.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// contract is the part of BENCHMARK.json the suite reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadContract(path string) (*contract, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// child runs one measurement in a fresh process and parses its result
// line. The child's table goes to our standard output.
func child(ctx context.Context, p params) (*wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", p.workload, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds), "-trace", trace,
		"-bin", p.binDir, "-scratch", p.scratch, "-out", p.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res wireResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: no result line (%v); run error: %v", p.workload, p.seed, trace, err, runErr)
	}
	return &res, nil
}

// setStats summarises one set of runs of one metric.
type setStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

type metricRecord struct {
	Unit string     `json:"unit"`
	Sets []setStats `json:"sets"`
}

type workloadRecord struct {
	EndToEnd map[string]*metricRecord `json:"end_to_end"`
	PerLayer map[string]wireMetric    `json:"per_layer"`
}

type suiteRecord struct {
	Benchmark string                     `json:"benchmark"`
	Date      string                     `json:"date"`
	NProc     int                        `json:"nproc"`
	GoVersion string                     `json:"go_version"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs_per_set"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// runSuite reports whether every run was correct and, with two or more
// sets, every metric agreed within its bound.
func runSuite(ctx context.Context, p params, sets int, recordPath string) (bool, error) {
	con, err := loadContract("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("the suite reads bounds from BENCHMARK.json in the working directory: %w", err)
	}
	runs := 1
	if sets >= 2 {
		// A set needs quartiles; ten runs is what the driver makes.
		runs = 10
	}
	rec := &suiteRecord{
		Benchmark: "modisperf", Date: time.Now().UTC().Format(time.RFC3339), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Seed: p.seed, Seconds: p.seconds, Runs: runs,
		Workloads: map[string]*workloadRecord{},
	}
	allCorrect := true
	for _, name := range workloadNames {
		wr := &workloadRecord{EndToEnd: map[string]*metricRecord{}}
		rec.Workloads[name] = wr
		q := p
		q.workload = name
		for set := 0; set < sets; set++ {
			values := map[string][]float64{}
			for i := 0; i < runs; i++ {
				q.trace, q.seed = false, p.seed+int64(i)
				res, err := child(ctx, q)
				if err != nil {
					return false, err
				}
				allCorrect = allCorrect && res.Correct
				for k, v := range res.Metrics {
					values[k] = append(values[k], v.Value)
					if wr.EndToEnd[k] == nil {
						wr.EndToEnd[k] = &metricRecord{Unit: v.Unit}
					}
				}
			}
			for k, xs := range values {
				q1, q2, q3 := quartiles(xs)
				wr.EndToEnd[k].Sets = append(wr.EndToEnd[k].Sets, setStats{Median: q2, Q1: q1, Q3: q3, Spread: spread(xs), Values: xs})
			}
		}
		q.trace, q.seed = true, p.seed
		res, err := child(ctx, q)
		if err != nil {
			return false, err
		}
		allCorrect = allCorrect && res.Correct
		wr.PerLayer = res.Metrics
	}

	agree := true
	fmt.Printf("\nsuite: seed %d, %.1f s windows, %d set(s) of %d run(s), %d CPUs, %s\n", p.seed, p.seconds, sets, runs, rec.NProc, rec.GoVersion)
	for _, name := range workloadNames {
		for _, def := range con.EndToEnd {
			mr := rec.Workloads[name].EndToEnd[def.Name]
			if mr == nil {
				return false, fmt.Errorf("%s emitted no %s", name, def.Name)
			}
			var cols []string
			verdict := ""
			for i, s := range mr.Sets {
				if runs == 1 {
					cols = append(cols, fmt.Sprintf("%.4f", s.Median))
					continue
				}
				cols = append(cols, fmt.Sprintf("median %.4f [%.4f, %.4f] spread %.3f", s.Median, s.Q1, s.Q3, s.Spread))
				if def.Name != "setup_s" && s.Spread > def.Bound {
					verdict = "SPREAD EXCEEDS BOUND"
				}
				if i > 0 {
					if w := worsening(mr.Sets[0].Median, s.Median, def.Better == "lower"); w > def.Bound {
						verdict = fmt.Sprintf("SETS DISAGREE (%.3f worse)", w)
					}
				}
			}
			if verdict == "" && sets >= 2 {
				verdict = "agree"
			}
			if verdict != "" && verdict != "agree" {
				agree = false
			}
			fmt.Printf("  %-14s %-12s %-4s bound %.2f  %s  %s\n", name, def.Name, def.Unit, def.Bound, strings.Join(cols, " | "), verdict)
		}
	}
	if !allCorrect {
		fmt.Println("suite: at least one run failed its output or durability check")
	}
	if recordPath != "" {
		blob, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(recordPath, append(blob, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allCorrect && agree, nil
}
