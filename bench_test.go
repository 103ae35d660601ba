// Package repro's root benchmarks regenerate the paper's tables and
// figures as testing.B targets, one per cmd/modisbench experiment
// (modisbench -list prints the index). Absolute numbers differ from the
// paper (synthetic lakes, from-scratch ML), but the comparative shapes
// hold. Per-layer costs (joins, materialisation, model fits, skyline
// maintenance, keys, appends) are measured by modisperf's probes.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/modis"
)

// benchOpts keeps benchmark iterations affordable: smaller budget than
// the full modisbench runs, same algorithmic paths. Valuation fans out
// across all CPUs (WithParallelism(0)) — the pool commits results in
// deterministic child order, so the measured searches produce the same
// skylines as sequential runs while using the whole machine. Later
// options win, so sweeps append their overrides.
func benchOpts(extra ...modis.Option) []modis.Option {
	return append([]modis.Option{
		modis.WithBudget(100),
		modis.WithEpsilon(0.1),
		modis.WithMaxLevel(5),
		modis.WithSeed(1),
		modis.WithParallelism(0),
	}, extra...)
}

func runAlgo(b *testing.B, w *datagen.Workload, algo string, extra ...modis.Option) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := modis.NewEngine(w.NewConfig(true)).Run(context.Background(), algo, benchOpts(extra...)...)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Skyline) == 0 {
			b.Fatal("empty skyline")
		}
	}
}

// --- E1/E2: Table 4 (T2 house, T4 mental) ---

func BenchmarkTable4T2(b *testing.B) {
	w := datagen.T2House(datagen.TaskConfig{Rows: 140})
	b.ResetTimer()
	runAlgo(b, w, "bi")
}

func BenchmarkTable4T4(b *testing.B) {
	w := datagen.T4Mental(datagen.TaskConfig{Rows: 140})
	b.ResetTimer()
	runAlgo(b, w, "bi")
}

// --- E3: Table 5 (T5 link regression) ---

func BenchmarkTable5T5(b *testing.B) {
	w := datagen.T5Link(datagen.T5Config{Users: 30, Items: 30})
	b.ResetTimer()
	runAlgo(b, w, "bi")
}

// --- E4/E5: Table 6 (T1 movie, T3 avocado) ---

func BenchmarkTable6T1(b *testing.B) {
	w := datagen.T1Movie(datagen.TaskConfig{Rows: 140})
	b.ResetTimer()
	runAlgo(b, w, "bi")
}

func BenchmarkTable6T3(b *testing.B) {
	w := datagen.T3Avocado(datagen.TaskConfig{Rows: 140})
	b.ResetTimer()
	runAlgo(b, w, "bi")
}

// --- E7/E10: Figure 8(a)/10(a) — epsilon sweeps ---

func BenchmarkFig8Epsilon(b *testing.B) {
	for _, eps := range []float64{0.5, 0.3, 0.1} {
		b.Run(label("eps", eps), func(b *testing.B) {
			w := datagen.T1Movie(datagen.TaskConfig{Rows: 140})
			b.ResetTimer()
			runAlgo(b, w, "bi", modis.WithEpsilon(eps))
		})
	}
}

// --- E8/E11: Figure 8(b)/10(b) — maxl sweeps ---

func BenchmarkFig10MaxL(b *testing.B) {
	for _, maxl := range []int{2, 4, 6} {
		b.Run(labelInt("maxl", maxl), func(b *testing.B) {
			w := datagen.T1Movie(datagen.TaskConfig{Rows: 140})
			b.ResetTimer()
			runAlgo(b, w, "apx", modis.WithMaxLevel(maxl))
		})
	}
}

// --- E9: Figure 9 — DivMODis alpha ---

func BenchmarkFig9Alpha(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		b.Run(label("alpha", alpha), func(b *testing.B) {
			w := datagen.T1Movie(datagen.TaskConfig{Rows: 140})
			b.ResetTimer()
			runAlgo(b, w, "div", modis.WithAlpha(alpha), modis.WithK(4))
		})
	}
}

// --- E12: Figure 10(c,d) — scalability over |A| and |adom| ---

func BenchmarkFig10ScalAttrs(b *testing.B) {
	for _, info := range []int{4, 8} {
		b.Run(labelInt("info", info), func(b *testing.B) {
			w := datagen.T1Movie(datagen.TaskConfig{Rows: 140, InfoAttrs: info})
			b.ResetTimer()
			runAlgo(b, w, "bi")
		})
	}
}

func BenchmarkFig10ScalAdom(b *testing.B) {
	for _, k := range []int{3, 6} {
		b.Run(labelInt("adom", k), func(b *testing.B) {
			w := datagen.T1Movie(datagen.TaskConfig{Rows: 140, AdomK: k})
			b.ResetTimer()
			runAlgo(b, w, "bi")
		})
	}
}

// --- E13/E14/E15: Figures 13-15 — T5 efficiency / scalability ---

func BenchmarkFig13T5(b *testing.B) {
	w := datagen.T5Link(datagen.T5Config{Users: 30, Items: 30})
	b.ResetTimer()
	runAlgo(b, w, "apx")
}

func BenchmarkFig14T5Scal(b *testing.B) {
	for _, n := range []int{24, 40} {
		b.Run(labelInt("nodes", n), func(b *testing.B) {
			w := datagen.T5Link(datagen.T5Config{Users: n, Items: n})
			b.ResetTimer()
			runAlgo(b, w, "bi")
		})
	}
}

// --- Ablations ---

// BenchmarkAblationPruning compares BiMODis with and without
// correlation-based pruning.
func BenchmarkAblationPruning(b *testing.B) {
	for _, algo := range []string{"bi", "nobi"} {
		name := "prune"
		if algo == "nobi" {
			name = "noprune"
		}
		b.Run(name, func(b *testing.B) {
			w := datagen.T2House(datagen.TaskConfig{Rows: 140})
			b.ResetTimer()
			runAlgo(b, w, algo)
		})
	}
}

// BenchmarkAblationSurrogate compares surrogate-backed discovery with
// exact-only valuation.
func BenchmarkAblationSurrogate(b *testing.B) {
	for _, sur := range []bool{true, false} {
		name := "surrogate"
		if !sur {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			w := datagen.T1Movie(datagen.TaskConfig{Rows: 140})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := modis.NewEngine(w.NewConfig(sur)).Run(context.Background(), "apx", benchOpts()...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func label(k string, v float64) string { return fmt.Sprintf("%s=%.1f", k, v) }

func labelInt(k string, v int) string { return fmt.Sprintf("%s=%d", k, v) }
