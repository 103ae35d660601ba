package exp

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/internal/skyline"
	"repro/modis"
)

// Case1 reproduces the first case study of Exp-4: "find data with
// models". A random-forest peak classifier (stand-in for the 2D X-ray
// material-science task) seeks datasets improving accuracy, training
// cost and F1 simultaneously; BiMODis' skyline is compared with METAM
// optimizing F1 alone.
func Case1(ctx context.Context) (*Report, error) {
	w := datagen.T2House(datagen.TaskConfig{Rows: 240, Seed: 77})
	rep := &Report{
		Title:  "Case study 1: discover datasets for peak classification (BiMODis skyline vs METAM)",
		Header: []string{"dataset", "pF1", "pAcc", "pTrain", "size(r,c)"},
	}

	orig, err := baselines.EvalTable(w, w.Lake.Universal)
	if err != nil {
		return nil, err
	}
	rep.RowsOut = append(rep.RowsOut, []string{"Original",
		fmt.Sprintf("%.4f", orig[0]), fmt.Sprintf("%.4f", orig[1]), fmt.Sprintf("%.4f", orig[2]),
		fmt.Sprintf("(%d,%d)", w.Lake.Universal.NumRows(), w.Lake.Universal.NumCols())})

	res, err := modis.NewEngine(w.NewConfig(true)).Run(ctx, "bi", MODisOptions()...)
	if err != nil {
		return nil, err
	}
	shown := 0
	for _, c := range res.Skyline {
		if shown >= 3 {
			break
		}
		out := w.Space.Materialize(c.Bits)
		perf, err := baselines.EvalTable(w, out)
		if err != nil {
			return nil, err
		}
		if perf[0] >= 1 {
			// Too small to train on: the surrogate admitted it, the
			// actual inference disqualifies it.
			continue
		}
		shown++
		rep.RowsOut = append(rep.RowsOut, []string{fmt.Sprintf("BiMODis D%d", shown),
			fmt.Sprintf("%.4f", perf[0]), fmt.Sprintf("%.4f", perf[1]), fmt.Sprintf("%.4f", perf[2]),
			fmt.Sprintf("(%d,%d)", out.NumRows(), out.NumCols())})
	}

	mo, err := baselines.METAM(w, 0) // optimize F1 alone
	if err != nil {
		return nil, err
	}
	rep.RowsOut = append(rep.RowsOut, []string{"METAM(F1)",
		fmt.Sprintf("%.4f", mo.Perf[0]), fmt.Sprintf("%.4f", mo.Perf[1]), fmt.Sprintf("%.4f", mo.Perf[2]),
		fmt.Sprintf("(%d,%d)", mo.Table.NumRows(), mo.Table.NumCols())})
	return rep, nil
}

// Case2 reproduces the second case study: generating test data for model
// benchmarking under explicit performance bounds ("accuracy > 0.85 and
// training cost < budget"). BiMODis is configured with the bounds as
// measure ranges; the report lists the generated candidate datasets.
func Case2(ctx context.Context) (*Report, error) {
	w := datagen.T4Mental(datagen.TaskConfig{Rows: 240, Seed: 88})
	// Bounds: normalized p_Acc = 1-acc must be <= 0.15 (acc > 0.85);
	// normalized training cost <= 0.5 of the universal-table cost.
	w.Measures[0].Bounds = skyline.Bounds{Lower: 1e-3, Upper: 0.15}
	w.Measures[5].Bounds = skyline.Bounds{Lower: 1e-3, Upper: 0.5}

	res, err := modis.NewEngine(w.NewConfig(true)).Run(ctx, "bi", MODisOptions()...)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Case study 2: generate test data meeting acc>0.85, train<0.5×budget",
		Header: []string{"dataset", "pAcc", "pTrain", "withinBounds", "size(r,c)"},
	}
	count := 0
	for i, c := range res.Skyline {
		if count >= 3 {
			break
		}
		out := w.Space.Materialize(c.Bits)
		perf, err := baselines.EvalTable(w, out)
		if err != nil {
			return nil, err
		}
		within := perf[0] <= 0.15 && perf[5] <= 0.5
		rep.RowsOut = append(rep.RowsOut, []string{fmt.Sprintf("D%d", i+1),
			fmt.Sprintf("%.4f", perf[0]), fmt.Sprintf("%.4f", perf[5]),
			fmt.Sprintf("%v", within),
			fmt.Sprintf("(%d,%d)", out.NumRows(), out.NumCols())})
		count++
	}
	if len(rep.RowsOut) == 0 {
		rep.RowsOut = append(rep.RowsOut, []string{"(none)", "-", "-", "-", "-"})
	}
	return rep, nil
}
