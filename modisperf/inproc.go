package main

// The three in-process workloads. They drive the system the way a
// library caller does — through repro/modis on workloads built by
// repro/internal/datagen — so the internals behind that API can be
// rewritten without touching this file. (fst is imported for the one
// thing the public surface does not re-export: the example UDF.)

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/modis"
)

var taskCtors = map[string]func(datagen.TaskConfig) *datagen.Workload{
	"t1": datagen.T1Movie,  // GBM regressor
	"t2": datagen.T2House,  // random forest classifier
	"t4": datagen.T4Mental, // histogram GBM classifier
}

// The three tree families, so an ml change for one family shows as such.
var inprocTasks = []string{"t1", "t2", "t4"}

const (
	discoverRows = 600
	agingRows    = 140
	setupReps    = 9
)

// buildTasks constructs the named workloads (lake, universal join,
// space, encoder) and forces what they build lazily — the per-literal
// row index and, on the rows route, the frozen matrix — with one root
// valuation each, so that the first timed operation pays none of it.
// dataSeed 0 keeps each task's built-in seed.
func buildTasks(tasks []string, rows int, dataSeed int64, udf bool) (map[string]*datagen.Workload, error) {
	out := map[string]*datagen.Workload{}
	for i, name := range tasks {
		tc := datagen.TaskConfig{Rows: rows}
		if dataSeed != 0 {
			tc.Seed = dataSeed*131 + int64(i) + 1
		}
		w := taskCtors[name](tc)
		if udf {
			w.Space.RegisterUDF(fst.ImputeMeansUDF(w.Lake.Target))
		}
		if _, err := w.NewConfig(false).Valuate(w.Space.FullBitmap()); err != nil {
			return nil, fmt.Errorf("root valuation of %s: %w", name, err)
		}
		out[name] = w
	}
	return out, nil
}

// medianSetup runs build reps times and returns the last result with the
// median build time in seconds: set-up is short and noisy, so one run
// sets up several times.
func medianSetup[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// digest fingerprints a skyline: every member's bitmap words and the
// bits of its performance vector, in report order. Two runs agree iff
// their skylines are byte-identical.
func digest(rep *modis.Report) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, c := range rep.Skyline {
		put(uint64(len(c.Bitmap)))
		for _, w := range c.Bitmap {
			put(w)
		}
		put(uint64(len(c.Perf)))
		for _, p := range c.Perf {
			put(math.Float64bits(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// opRecord is one executed operation.
type opRecord struct {
	Key    string // digest key: "t1/bi" for a grid cell, "t1#07" for an engine's 8th run
	Group  string // task / engine
	Algo   string
	Traced bool
	MS     float64 // caller-observed latency
	Rep    *modis.Report
	Digest string
	Err    error
}

// memDelta accumulates runtime.MemStats movement over timed stretches.
type memDelta struct {
	mallocs, bytes, pauseNS uint64
	last                    runtime.MemStats
}

func (d *memDelta) start() { runtime.ReadMemStats(&d.last) }

func (d *memDelta) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	d.mallocs += now.Mallocs - d.last.Mallocs
	d.bytes += now.TotalAlloc - d.last.TotalAlloc
	d.pauseNS += now.PauseTotalNs - d.last.PauseTotalNs
}

func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// inproc is the state of one in-process run.
type inproc struct {
	p       params
	m       *measurement
	tr      *tracer // nil unless -trace 1
	ops     []opRecord
	refs    map[string]string // digest key → reference digest
	refMS   []float64         // latencies of the solo reference runs
	mem     [2]memDelta       // [untraced, traced]
	windowS float64           // timed seconds
}

// runOp executes one operation and records it. A nil engine means the
// operation includes building one over a fresh configuration.
func (r *inproc) runOp(ctx context.Context, key, group, algo string, w *datagen.Workload, eng *modis.Engine, opts []modis.Option, traced bool) opRecord {
	rec := opRecord{Key: key, Group: group, Algo: algo, Traced: traced}
	id := len(r.ops)
	if traced {
		r.tr.beginOp(id, "op."+algo)
	}
	t0 := time.Now()
	if eng == nil {
		cfg := w.NewConfig(true)
		if traced {
			opts = append(opts[:len(opts):len(opts)], r.tr.instrument(cfg))
		}
		eng = modis.NewEngine(cfg)
	}
	rec.Rep, rec.Err = eng.Run(ctx, algo, opts...)
	rec.MS = float64(time.Since(t0)) / 1e6
	if traced {
		r.tr.endOp()
	}
	if rec.Err == nil {
		rec.Digest = digest(rec.Rep)
	}
	r.ops = append(r.ops, rec)
	return rec
}

// verify counts an operation and checks its skyline against the
// reference for its key.
func (r *inproc) verify(rec opRecord) {
	r.m.attempted++
	if rec.Err != nil || rec.Digest != r.refs[rec.Key] {
		r.m.failed++
	}
}

func discoverOpts(seed int64, par int) []modis.Option {
	return []modis.Option{
		modis.WithBudget(100), modis.WithEpsilon(0.1), modis.WithMaxLevel(5),
		modis.WithSeed(seed), modis.WithParallelism(par),
	}
}

// runDiscover is discover-cold (udf=false) and discover-udf (udf=true):
// every operation builds an engine over a fresh configuration — empty
// memo, untrained surrogate — and runs one algorithm to its budget. One
// caller, closed loop, whole grid rounds until the time is up, so every
// run measures the same mix of cells.
func runDiscover(ctx context.Context, p params, udf bool) (*measurement, error) {
	r := &inproc{p: p, m: newMeasurement(p.workload), refs: map[string]string{}}
	algos := []string{"apx", "bi", "nobi", "div", "exact"}
	if udf {
		algos = []string{"apx", "bi"}
	}
	if p.trace {
		r.tr = newTracer()
	}
	ws, setupS, err := medianSetup(setupReps, func() (map[string]*datagen.Workload, error) {
		return buildTasks(inprocTasks, discoverRows, p.seed, udf)
	}, nil)
	if err != nil {
		return nil, err
	}
	r.m.set("setup_s", setupS, setupReps)

	type cell struct{ task, algo string }
	var cells []cell
	for _, t := range inprocTasks {
		for _, a := range algos {
			cells = append(cells, cell{t, a})
		}
	}
	// Solo references, one per cell: the skyline every timed run of the
	// cell must reproduce byte for byte at any parallelism.
	for _, c := range cells {
		key := c.task + "/" + c.algo
		t0 := time.Now()
		rep, err := modis.NewEngine(ws[c.task].NewConfig(true)).Run(ctx, c.algo, discoverOpts(p.seed, 1)...)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", key, err)
		}
		r.refMS = append(r.refMS, float64(time.Since(t0))/1e6)
		r.refs[key] = digest(rep)
	}

	rng := rand.New(rand.NewSource(p.seed))
	opts := discoverOpts(p.seed, 0)
	minRounds := 1
	if p.trace {
		minRounds = 2 // one untraced, one traced
	}
	runtime.GC()
	start := time.Now()
	rounds := 0
	for ; rounds < minRounds || time.Since(start).Seconds() < p.seconds; rounds++ {
		traced := p.trace && rounds%2 == 1
		mem := &r.mem[0]
		if traced {
			mem = &r.mem[1]
		}
		mem.start()
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			r.verify(r.runOp(ctx, c.task+"/"+c.algo, c.task, c.algo, ws[c.task], nil, opts, traced))
		}
		mem.stop()
	}
	r.windowS = time.Since(start).Seconds()
	r.m.info = append(r.m.info,
		fmt.Sprintf("closed loop, 1 caller, in-process; grid %v x %v at %d rows, budget 100, eps 0.1, maxl 5, all CPUs", inprocTasks, algos, discoverRows),
		fmt.Sprintf("%d grid rounds = %d ops in %.2f s; fresh engine per op; udf=%v", rounds, len(r.ops), r.windowS, udf))
	return r.finish()
}

// runAging is engine-aging: three long-lived engines, each taking job
// after job the way a serving shard does, so the memo, the surrogate's
// training set and bi's correlation history grow from nothing. Jobs
// alternate "exact" (which valuates 120 states the memo has not seen on
// every run, whatever the data) and "bi" (whose cost on a grown memo is
// the surrogate refit and the correlation graph). The script has a fixed
// length because an operation's cost depends on how many ran before it;
// the length follows -seconds (seconds+1 jobs per engine, about as many
// seconds of work on a 2-CPU host). The data keep the tasks' built-in
// seeds: how far bi's skyline-guided frontier reaches before it dries up
// is a property of the data, and a run is only comparable with another
// run of the same script.
func runAging(ctx context.Context, p params) (*measurement, error) {
	r := &inproc{p: p, m: newMeasurement(p.workload), refs: map[string]string{}}
	if p.trace {
		r.tr = newTracer()
	}
	perEngine := int(p.seconds) + 1
	if perEngine < 2 {
		perEngine = 2
	}
	build := func() (map[string]*datagen.Workload, error) { return buildTasks(inprocTasks, agingRows, 0, false) }
	_, setupS, err := medianSetup(setupReps, build, nil)
	if err != nil {
		return nil, err
	}
	r.m.set("setup_s", setupS, setupReps)
	order := rand.New(rand.NewSource(p.seed)).Perm(len(inprocTasks))

	// pass runs the whole script on fresh engines.
	pass := func(par int, traced bool) ([]opRecord, float64, error) {
		ws, err := build()
		if err != nil {
			return nil, 0, err
		}
		engines := map[string]*modis.Engine{}
		extra := map[string][]modis.Option{}
		for _, t := range inprocTasks {
			cfg := ws[t].NewConfig(true)
			if traced {
				extra[t] = []modis.Option{r.tr.instrument(cfg)}
			}
			engines[t] = modis.NewEngine(cfg)
		}
		first := len(r.ops)
		mem := &r.mem[0]
		if traced {
			mem = &r.mem[1]
		}
		runtime.GC()
		mem.start()
		start := time.Now()
		for i := 0; i < perEngine; i++ {
			algo := "exact"
			if i%2 == 1 {
				algo = "bi"
			}
			for _, ti := range order {
				t := inprocTasks[ti]
				opts := append([]modis.Option{
					modis.WithBudget(120), modis.WithMaxLevel(3), modis.WithSeed(p.seed), modis.WithParallelism(par),
				}, extra[t]...)
				r.runOp(ctx, fmt.Sprintf("%s#%02d", t, i), t, algo, ws[t], engines[t], opts, traced)
			}
		}
		secs := time.Since(start).Seconds()
		mem.stop()
		return r.ops[first:], secs, nil
	}

	// The solo reference pass: same script, parallelism 1.
	ref, _, err := pass(1, false)
	if err != nil {
		return nil, err
	}
	for _, rec := range ref {
		if rec.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", rec.Key, rec.Err)
		}
		r.refs[rec.Key] = rec.Digest
		r.refMS = append(r.refMS, rec.MS)
	}
	r.ops = nil
	r.mem = [2]memDelta{}
	timed, secs, err := pass(0, false)
	if err != nil {
		return nil, err
	}
	r.windowS = secs
	for _, rec := range timed {
		r.verify(rec)
	}
	if p.trace {
		tr, _, err := pass(0, true)
		if err != nil {
			return nil, err
		}
		for _, rec := range tr {
			r.verify(rec)
		}
	}
	r.m.info = append(r.m.info,
		fmt.Sprintf("closed loop, 1 caller, in-process; long-lived engines %v at %d rows (built-in data seeds)", inprocTasks, agingRows),
		fmt.Sprintf("fixed script: %d jobs per engine alternating exact/bi, budget 120, maxl 3, round-robin = %d ops in %.2f s", perEngine, len(timed), r.windowS))
	return r.finish()
}

// finish turns the recorded operations into the run's metrics.
func (r *inproc) finish() (*measurement, error) {
	m := r.m
	var plain, traced []opRecord
	for _, rec := range r.ops {
		if rec.Traced {
			traced = append(traced, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	ms := func(recs []opRecord) []float64 {
		out := make([]float64, 0, len(recs))
		for _, rec := range recs {
			out = append(out, rec.MS)
		}
		return out
	}
	lat := ms(plain)
	// End-to-end metrics always come from the untraced operations.
	verified := 0
	for _, rec := range plain {
		if rec.Err == nil && rec.Digest == r.refs[rec.Key] {
			verified++
		}
	}
	plainS := r.windowS
	if len(traced) > 0 && r.p.workload != "engine-aging" {
		// Untraced and traced rounds interleave inside one window; the
		// untraced share of it is the sum of the untraced latencies.
		plainS = 0
		for _, x := range lat {
			plainS += x / 1e3
		}
	}
	m.set("op_p50_ms", percentile(lat, 0.5), len(lat))
	m.set("op_p90_ms", percentile(lat, 0.9), len(lat))
	if plainS > 0 {
		m.set("ops_per_s", float64(verified)/plainS, len(lat))
	}
	m.set("peak_rss_mb", selfPeakRSSMB(), 0)
	if err := writeDigests(r.p, r.refs); err != nil {
		return nil, err
	}
	if r.tr == nil {
		return m, nil
	}
	nPlain := float64(len(plain))
	m.set("runtime.allocs_per_op", float64(r.mem[0].mallocs)/nPlain, len(plain))
	m.set("runtime.alloc_mb_per_op", float64(r.mem[0].bytes)/nPlain/(1<<20), len(plain))
	m.set("runtime.gc_pause_ms_per_op", float64(r.mem[0].pauseNS)/nPlain/1e6, len(plain))
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("runtime.heap_peak_mb", float64(mem.HeapSys-mem.HeapReleased)/(1<<20), 0)
	// Tracing overhead, cell by cell: the traced mean of a key over its
	// untraced mean, then the median across keys, so that the mix of
	// cheap and dear cells cancels out.
	sum := map[string]*[4]float64{} // key → untraced sum, count, traced sum, count
	for _, rec := range r.ops {
		a := sum[rec.Key]
		if a == nil {
			a = &[4]float64{}
			sum[rec.Key] = a
		}
		if rec.Traced {
			a[2] += rec.MS
			a[3]++
		} else {
			a[0] += rec.MS
			a[1]++
		}
	}
	var over []float64
	for _, a := range sum {
		if a[0] > 0 && a[3] > 0 {
			over = append(over, (a[2]/a[3])/(a[0]/a[1])-1)
		}
	}
	m.set("trace.overhead_share", median(over), len(over))
	if p50 := percentile(lat, 0.5); p50 > 0 {
		// The pool-on/off point: the solo references ran the same cells
		// at parallelism 1.
		m.set("workpool.speedup", percentile(r.refMS, 0.5)/p50, len(r.refMS))
	}
	r.tr.layerMetrics(m, r.ops)
	return m, writeSpans(tracePath(r.p), r.tr.rec.snapshot())
}
