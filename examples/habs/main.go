// HABs: the paper's motivating Example 1. A research team forecasting
// the chlorophyll-a index (CI-index) of harmful algal blooms has water,
// basin, nitrogen and phosphorus tables, a random-forest-style model,
// and a skyline query: "generate a dataset for which the model has RMSE
// below a bound, R² above a bound, and trains within a cost budget."
//
// This example builds the four-source lake, poses the bounds as measure
// ranges, and lets BiMODis answer the query.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/skyline"
	"repro/internal/table"
	"repro/modis"
)

func main() {
	lake := buildHABsLake(240, 7)
	fmt.Printf("sources: ")
	for i, t := range lake.Tables {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(t.Name)
	}
	fmt.Printf("\nuniversal: %d rows x %d cols\n\n", lake.Universal.NumRows(), lake.Universal.NumCols())

	w := ciIndexWorkload(lake)
	// The skyline query's bounds: normalized RMSE within (0, 0.6],
	// inverted R² within (0, 0.35] (i.e. R² >= 0.65), training cost
	// within (0, 0.5] of the universal-table budget — Example 2's ranges.
	w.Measures[0].Bounds = skyline.Bounds{Lower: 1e-3, Upper: 0.6}
	w.Measures[1].Bounds = skyline.Bounds{Lower: 1e-3, Upper: 0.35}
	w.Measures[2].Bounds = skyline.Bounds{Lower: 1e-3, Upper: 0.5}

	cfg := w.NewConfig(true)
	res, err := modis.NewEngine(cfg).Run(context.Background(), "bi",
		modis.WithBudget(250), modis.WithEpsilon(0.1), modis.WithMaxLevel(6))
	if err != nil {
		log.Fatal(err)
	}

	orig, _ := cfg.Valuate(w.Space.FullBitmap())
	fmt.Printf("original <RMSE, 1-R2, Ttrain> = %v\n", orig)
	fmt.Printf("skyline answers within bounds (%d states valuated):\n", res.Valuated)
	found := 0
	for _, c := range res.Skyline {
		if !cfg.WithinBounds(c.Perf) {
			continue
		}
		found++
		d := w.Space.Materialize(c.Bits)
		fmt.Printf("  D%d: %v  size=(%d,%d)\n", found, c.Perf, d.NumRows(), d.NumCols())
	}
	if found == 0 {
		fmt.Println("  (no dataset satisfies all bounds — relax the query)")
	}
}

// buildHABsLake plants a CI-index signal across water/basin/nitrogen/
// phosphorus tables keyed by a shared station id, with a cluster of
// sensor-glitch rows (the 2013 flood season) whose CI labels are noise.
func buildHABsLake(rows int, seed int64) *datagen.Lake {
	rng := rand.New(rand.NewSource(seed))
	nGlitch := rows / 4
	total := rows + nGlitch

	level := func() float64 { return float64(rng.Intn(3)) / 2 }

	temp := make([]float64, total)
	flow := make([]float64, total)
	nitro := make([]float64, total)
	phos := make([]float64, total)
	ci := make([]float64, total)
	for i := 0; i < total; i++ {
		if i < rows {
			temp[i], flow[i], nitro[i], phos[i] = level(), level(), level(), level()
			ci[i] = 1.2*temp[i] + 0.8*flow[i] + 1.5*nitro[i] + 1.1*phos[i] + 0.05*rng.NormFloat64()
		} else {
			// Glitch rows: shifted sensor values, random CI.
			temp[i], flow[i] = 2+rng.Float64(), 2+rng.Float64()
			nitro[i], phos[i] = level(), level()
			ci[i] = 5 * rng.Float64()
		}
	}

	water := table.New("water", table.Schema{
		{Name: "station", Kind: table.KindInt},
		{Name: "temp", Kind: table.KindFloat},
		{Name: "flow", Kind: table.KindFloat},
		{Name: "ci_index", Kind: table.KindFloat},
	})
	basin := table.New("basin", table.Schema{
		{Name: "station", Kind: table.KindInt},
		{Name: "land_use", Kind: table.KindString},
	})
	nitrogen := table.New("nitrogen", table.Schema{
		{Name: "station", Kind: table.KindInt},
		{Name: "nitrate", Kind: table.KindFloat},
	})
	phosphorus := table.New("phosphorus", table.Schema{
		{Name: "station", Kind: table.KindInt},
		{Name: "phosphate", Kind: table.KindFloat},
	})
	uses := []string{"farm", "urban", "forest"}
	for i := 0; i < total; i++ {
		id := table.Int(int64(i))
		water.MustAppend(table.Row{id, table.Float(temp[i]), table.Float(flow[i]), table.Float(ci[i])})
		basin.MustAppend(table.Row{id, table.Str(uses[rng.Intn(len(uses))])})
		nitrogen.MustAppend(table.Row{id, table.Float(nitro[i])})
		phosphorus.MustAppend(table.Row{id, table.Float(phos[i])})
	}

	u := table.Universal(water, basin, nitrogen, phosphorus)
	for _, c := range u.Schema {
		if c.Name == "ci_index" || c.Name == "station" || c.Kind == table.KindString {
			continue
		}
		u = table.Compress(u, c.Name, 4)
	}
	return &datagen.Lake{
		Config:    datagen.LakeConfig{Name: "habs", AdomK: 4, Seed: seed},
		Tables:    []*table.Table{water, basin, nitrogen, phosphorus},
		Universal: u,
		Target:    "ci_index",
	}
}

// ciIndexWorkload wires a boosted-tree CI-index regressor with the
// paper's P = {RMSE, 1-R², Ttrain} measures.
func ciIndexWorkload(lake *datagen.Lake) *datagen.Workload {
	space := fst.NewSpace(lake.Universal, lake.Target, fst.SpaceConfig{
		MaxLiteralsPerAttr: 4,
		SkipLiteralAttrs:   []string{"station"},
		ProtectedAttrs:     []string{"station"},
	})
	maxCost := float64(lake.Universal.NumRows() * lake.Universal.NumCols())
	model := &datagen.TableModel{
		ModelName: "RF-ci",
		Eval: func(d *table.Table) ([]float64, error) {
			ds := ml.FromTable(d.DropColumn("station"), lake.Target)
			if ds.NumRows() < 40 || ds.NumFeatures() == 0 {
				return []float64{1, 0, maxCost}, nil
			}
			train, test := ds.Split(0.3, 42)
			m := &ml.ForestRegressor{Config: ml.ForestConfig{NumTrees: 12, MaxDepth: 7, Seed: 1}}
			m.FitData(train)
			pred := make([]float64, len(test.Y))
			for i, x := range test.X {
				pred[i] = m.Predict(x)
			}
			spread := maxOf(test.Y) - minOf(test.Y)
			if spread == 0 {
				spread = 1
			}
			rmse := ml.RMSE(test.Y, pred) / spread
			r2 := ml.R2(test.Y, pred)
			cost := float64(train.NumRows() * train.NumFeatures())
			return []float64{rmse, r2, cost}, nil
		},
	}
	measures := []fst.Measure{
		{Name: "RMSE", Normalize: fst.Identity(1e-3)},
		{Name: "1-R2", Normalize: fst.Inverted(1e-3)},
		{Name: "Ttrain", Normalize: fst.Scaled(maxCost, 1e-3)},
	}
	return &datagen.Workload{Name: "habs", Lake: lake, Space: space, Model: model, Measures: measures}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
