package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/table"
)

// Built couples a constructed workload's descriptor with its runnable
// configuration — what a daemon registers with its scheduler.
type Built struct {
	Desc *Descriptor
	Cfg  *fst.Config
}

// taskBuilders are the built-in paper workloads constructible by name.
var taskBuilders = map[string]func(rows int) *datagen.Workload{
	"t1": func(rows int) *datagen.Workload { return datagen.T1Movie(datagen.TaskConfig{Rows: rows}) },
	"t2": func(rows int) *datagen.Workload { return datagen.T2House(datagen.TaskConfig{Rows: rows}) },
	"t3": func(rows int) *datagen.Workload { return datagen.T3Avocado(datagen.TaskConfig{Rows: rows}) },
	"t4": func(rows int) *datagen.Workload { return datagen.T4Mental(datagen.TaskConfig{Rows: rows}) },
	"t5": func(rows int) *datagen.Workload {
		return datagen.T5Link(datagen.T5Config{Users: rows / 4, Items: rows / 8})
	},
}

// Tasks lists the built-in task names, sorted.
func Tasks() []string {
	out := make([]string, 0, len(taskBuilders))
	for name := range taskBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildTask constructs a built-in paper workload (t1–t5) at the given
// row scale (0 = task default) and returns it with its descriptor. The
// generators are seeded and deterministic, so any two processes
// building the same task at the same scale produce byte-identical
// tables — and therefore the same descriptor hash.
func BuildTask(task string, rows int, surrogate bool) (*Built, error) {
	name := strings.ToLower(strings.TrimSpace(task))
	build, ok := taskBuilders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown task %q (known: %s)", task, strings.Join(Tasks(), ", "))
	}
	w := build(rows)
	cfg := w.NewConfig(surrogate)
	d, err := Describe(name, cfg)
	if err != nil {
		return nil, err
	}
	d.Task = name
	d.Rows = rows
	if d.Rows == 0 {
		d.Rows = w.Lake.Config.Rows
	}
	for _, t := range w.Lake.Tables {
		d.Tables = append(d.Tables, DigestTable(t))
	}
	d.Encoder.AdomK = w.Lake.Config.AdomK
	return &Built{Desc: d, Cfg: cfg}, nil
}

// CustomOptions parameterize a CSV-backed custom workload.
type CustomOptions struct {
	// Name is the catalog display name (default "custom").
	Name string
	// Target is the attribute the model predicts.
	Target string
	// Model selects the learner family: "gbm", "forest", "histgbm",
	// "linear", "logistic" ("" = gbm).
	Model string
	// AdomK bounds the per-attribute literal count (default 8).
	AdomK int
	// Surrogate enables the MO-GBM estimator.
	Surrogate bool
}

// FromTables constructs a custom workload over user tables (the
// modisd -tables path) and returns it with its descriptor. Identity is
// content-addressed: the same CSV bytes loaded on two nodes — under
// any file names — produce the same hash.
func FromTables(tables []*table.Table, o CustomOptions) (*Built, error) {
	w, err := datagen.NewCustomWorkload(datagen.CustomConfig{
		Tables:    tables,
		Target:    o.Target,
		ModelKind: o.Model,
		AdomK:     o.AdomK,
	})
	if err != nil {
		return nil, err
	}
	cfg := w.NewConfig(o.Surrogate)
	name := o.Name
	if name == "" {
		name = "custom"
	}
	d, err := Describe(name, cfg)
	if err != nil {
		return nil, err
	}
	d.Task = "custom"
	for _, t := range tables {
		d.Tables = append(d.Tables, DigestTable(t))
	}
	d.Encoder.AdomK = w.Lake.Config.AdomK
	return &Built{Desc: d, Cfg: cfg}, nil
}
