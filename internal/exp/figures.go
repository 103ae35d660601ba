package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/modis"
)

// sweepOptions is the sweep budget: tighter than the comparison runs so
// the swept knob (ε, maxl) actually binds the search.
func sweepOptions() []modis.Option {
	return append(MODisOptions(), modis.WithBudget(150))
}

// sweepMODis runs every MODis algorithm over a parameter sweep and
// reports rImp on the selected measure (quality sweeps) and wall time
// (efficiency sweeps).
func sweepMODis(ctx context.Context, w func() *datagen.Workload, optsFor func(i int) []modis.Option,
	labels []string, selectIdx int) (quality, timing [][]string, err error) {

	methods := modisMethods()
	quality = make([][]string, len(methods))
	timing = make([][]string, len(methods))
	for mi, m := range methods {
		quality[mi] = []string{m.name}
		timing[mi] = []string{m.name}
		for i := range labels {
			wl := w()
			orig, err := baselines.EvalTable(wl, wl.Lake.Universal)
			if err != nil {
				return nil, nil, err
			}
			rep, err := modis.NewEngine(wl.NewConfig(true)).Run(ctx, m.key, optsFor(i)...)
			if err != nil {
				return nil, nil, err
			}
			best := rep.Best(selectIdx)
			r := 0.0
			if best != nil {
				out := wl.Space.Materialize(best.Bits)
				perf, err := baselines.EvalTable(wl, out)
				if err != nil {
					return nil, nil, err
				}
				r = RImp(orig, perf, selectIdx)
			}
			quality[mi] = append(quality[mi], fmt.Sprintf("%.3f", r))
			timing[mi] = append(timing[mi], rep.Wall.Round(time.Millisecond).String())
		}
	}
	return quality, timing, nil
}

// Fig8Epsilon reproduces Fig 8(a, c): rImp of the selected accuracy
// measure as ε varies, maxl fixed at 6, for T1 and T2.
func Fig8Epsilon(ctx context.Context) ([]*Report, error) {
	var out []*Report
	type spec struct {
		name   string
		w      func() *datagen.Workload
		epsSet []float64
	}
	for _, s := range []spec{
		{"Figure 8(a): T1, rImp(pAcc) vs ε", func() *datagen.Workload { return datagen.T1Movie(defaultScale) }, []float64{0.5, 0.4, 0.3, 0.2, 0.1}},
		{"Figure 8(c): T2, rImp(pF1) vs ε", func() *datagen.Workload { return datagen.T2House(defaultScale) }, []float64{0.1, 0.08, 0.05, 0.02}},
	} {
		labels := make([]string, len(s.epsSet))
		for i, e := range s.epsSet {
			labels[i] = fmt.Sprintf("eps=%.2f", e)
		}
		q, _, err := sweepMODis(ctx, s.w, func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithEpsilon(s.epsSet[i]))
		}, labels, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, &Report{Title: s.name, Header: append([]string{"method"}, labels...), RowsOut: q})
	}
	return out, nil
}

// Fig8MaxL reproduces Fig 8(b, d): rImp as maxl varies 2..6, ε = 0.1.
func Fig8MaxL(ctx context.Context) ([]*Report, error) {
	var out []*Report
	type spec struct {
		name string
		w    func() *datagen.Workload
	}
	maxls := []int{2, 3, 4, 5, 6}
	labels := make([]string, len(maxls))
	for i, l := range maxls {
		labels[i] = fmt.Sprintf("maxl=%d", l)
	}
	for _, s := range []spec{
		{"Figure 8(b): T1, rImp(pAcc) vs maxl", func() *datagen.Workload { return datagen.T1Movie(defaultScale) }},
		{"Figure 8(d): T2, rImp(pF1) vs maxl", func() *datagen.Workload { return datagen.T2House(defaultScale) }},
	} {
		q, _, err := sweepMODis(ctx, s.w, func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithEpsilon(0.1), modis.WithMaxLevel(maxls[i]))
		}, labels, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, &Report{Title: s.name, Header: append([]string{"method"}, labels...), RowsOut: q})
	}
	return out, nil
}

// Fig9Alpha reproduces Fig 9: DivMODis under varying α — performance
// diversity (accuracy spread over the skyline) and content diversity
// (per-attribute adom contribution std; smaller means more even).
func Fig9Alpha(ctx context.Context) (*Report, error) {
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	rep := &Report{
		Title:  "Figure 9: DivMODis vs α — accuracy spread and adom-contribution std",
		Header: []string{"alpha", "accMin", "accMax", "accSpread", "adomStd", "k"},
	}
	for _, a := range alphas {
		w := datagen.T1Movie(defaultScale)
		opts := append(MODisOptions(),
			modis.WithK(3),
			modis.WithEpsilon(0.05), // finer grid: more cells, so diversification binds
			modis.WithAlpha(a))
		rep9, err := modis.NewEngine(w.NewConfig(true)).Run(ctx, "div", opts...)
		if err != nil {
			return nil, err
		}
		lo, hi := 1.0, 0.0
		for _, c := range rep9.Skyline {
			v := c.Perf[0]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		_, _, std := adomContribution(w, rep9.Skyline)
		rep.RowsOut = append(rep.RowsOut, []string{
			fmt.Sprintf("%.1f", a),
			fmt.Sprintf("%.4f", lo),
			fmt.Sprintf("%.4f", hi),
			fmt.Sprintf("%.4f", hi-lo),
			fmt.Sprintf("%.4f", std),
			fmt.Sprintf("%d", len(rep9.Skyline)),
		})
	}
	return rep, nil
}

// Fig10Efficiency reproduces Fig 10(a, b): wall time of the MODis
// algorithms as ε (T1, maxl=6) and maxl (T1 ε=0.2, T3 ε=0.1) vary.
func Fig10Efficiency(ctx context.Context) ([]*Report, error) {
	var out []*Report

	epsSet := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	labels := make([]string, len(epsSet))
	for i, e := range epsSet {
		labels[i] = fmt.Sprintf("eps=%.1f", e)
	}
	_, tim, err := sweepMODis(ctx, func() *datagen.Workload { return datagen.T1Movie(defaultScale) },
		func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithEpsilon(epsSet[i]))
		}, labels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 10(a): T1 discovery time vs ε", Header: append([]string{"method"}, labels...), RowsOut: tim})

	maxls := []int{2, 3, 4, 5, 6}
	mlabels := make([]string, len(maxls))
	for i, l := range maxls {
		mlabels[i] = fmt.Sprintf("maxl=%d", l)
	}
	type spec struct {
		name string
		w    func() *datagen.Workload
		eps  float64
	}
	for _, s := range []spec{
		{"Figure 10(b): T1 discovery time vs maxl (ε=0.2)", func() *datagen.Workload { return datagen.T1Movie(defaultScale) }, 0.2},
		{"Figure 13(d): T3 discovery time vs maxl (ε=0.1)", func() *datagen.Workload { return datagen.T3Avocado(defaultScale) }, 0.1},
	} {
		_, tim, err := sweepMODis(ctx, s.w, func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithEpsilon(s.eps), modis.WithMaxLevel(maxls[i]))
		}, mlabels, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, &Report{Title: s.name, Header: append([]string{"method"}, mlabels...), RowsOut: tim})
	}
	return out, nil
}

// Fig10Scalability reproduces Fig 10(c, d): wall time as the number of
// attributes |A| and the largest active domain |adom| grow (T1).
func Fig10Scalability(ctx context.Context) ([]*Report, error) {
	var out []*Report

	attrCounts := []int{4, 6, 8, 10}
	labels := make([]string, len(attrCounts))
	for i, a := range attrCounts {
		labels[i] = fmt.Sprintf("|A|=%d", a+5) // info attrs + fixed columns
	}
	_, tim, err := sweepMODisVariants(ctx, func(i int) *datagen.Workload {
		return datagen.T1Movie(datagen.TaskConfig{Rows: 200, InfoAttrs: attrCounts[i], NoiseAttrs: 3})
	}, func(int) []modis.Option { return MODisOptions() }, labels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 10(c): T1 discovery time vs |A|", Header: append([]string{"method"}, labels...), RowsOut: tim})

	adomKs := []int{2, 3, 4, 5}
	klabels := make([]string, len(adomKs))
	for i, k := range adomKs {
		klabels[i] = fmt.Sprintf("|adom|=%d", k)
	}
	_, tim, err = sweepMODisVariants(ctx, func(i int) *datagen.Workload {
		return datagen.T1Movie(datagen.TaskConfig{Rows: 200, AdomK: adomKs[i]})
	}, func(int) []modis.Option { return MODisOptions() }, klabels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 10(d): T1 discovery time vs |adom|", Header: append([]string{"method"}, klabels...), RowsOut: tim})
	return out, nil
}

// sweepMODisVariants is sweepMODis where the workload itself varies per
// sweep point (scalability experiments).
func sweepMODisVariants(ctx context.Context, wFor func(i int) *datagen.Workload, optsFor func(i int) []modis.Option,
	labels []string, selectIdx int) (quality, timing [][]string, err error) {

	methods := modisMethods()
	quality = make([][]string, len(methods))
	timing = make([][]string, len(methods))
	for mi, m := range methods {
		quality[mi] = []string{m.name}
		timing[mi] = []string{m.name}
		for i := range labels {
			wl := wFor(i)
			rep, err := modis.NewEngine(wl.NewConfig(true)).Run(ctx, m.key, optsFor(i)...)
			if err != nil {
				return nil, nil, err
			}
			quality[mi] = append(quality[mi], fmt.Sprintf("%d", len(rep.Skyline)))
			timing[mi] = append(timing[mi], rep.Wall.Round(time.Millisecond).String())
		}
	}
	return quality, timing, nil
}

// Fig13T5 reproduces Fig 13(a, b): efficiency of the MODis algorithms on
// the graph workload T5, varying ε and maxl.
func Fig13T5(ctx context.Context) ([]*Report, error) {
	var out []*Report
	epsSet := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	labels := make([]string, len(epsSet))
	for i, e := range epsSet {
		labels[i] = fmt.Sprintf("eps=%.1f", e)
	}
	_, tim, err := sweepMODisVariants(ctx, func(int) *datagen.Workload { return datagen.T5Link(datagen.T5Config{}) },
		func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithEpsilon(epsSet[i]))
		}, labels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 13(a): T5 discovery time vs ε", Header: append([]string{"method"}, labels...), RowsOut: tim})

	maxls := []int{2, 3, 4, 5, 6}
	mlabels := make([]string, len(maxls))
	for i, l := range maxls {
		mlabels[i] = fmt.Sprintf("maxl=%d", l)
	}
	_, tim, err = sweepMODisVariants(ctx, func(int) *datagen.Workload { return datagen.T5Link(datagen.T5Config{}) },
		func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithMaxLevel(maxls[i]))
		}, mlabels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 13(b): T5 discovery time vs maxl", Header: append([]string{"method"}, mlabels...), RowsOut: tim})
	return out, nil
}

// Fig14T5 reproduces Fig 14: scalability of the MODis algorithms on T5,
// varying the node-feature dimensionality (via user/item counts) and the
// edge-cluster count |adom|.
func Fig14T5(ctx context.Context) ([]*Report, error) {
	var out []*Report

	sizes := []int{24, 32, 40, 48}
	labels := make([]string, len(sizes))
	for i, s := range sizes {
		labels[i] = fmt.Sprintf("|V|=%d", 2*s)
	}
	_, tim, err := sweepMODisVariants(ctx, func(i int) *datagen.Workload {
		return datagen.T5Link(datagen.T5Config{Users: sizes[i], Items: sizes[i]})
	}, func(int) []modis.Option { return MODisOptions() }, labels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 14(a): T5 discovery time vs graph size", Header: append([]string{"method"}, labels...), RowsOut: tim})

	ks := []int{3, 5, 7, 9}
	klabels := make([]string, len(ks))
	for i, k := range ks {
		klabels[i] = fmt.Sprintf("|adom|=%d", k)
	}
	_, tim, err = sweepMODisVariants(ctx, func(i int) *datagen.Workload {
		return datagen.T5Link(datagen.T5Config{AdomK: ks[i]})
	}, func(int) []modis.Option { return MODisOptions() }, klabels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 14(b): T5 discovery time vs |adom|", Header: append([]string{"method"}, klabels...), RowsOut: tim})
	return out, nil
}

// Fig15T5 reproduces Fig 15: sensitivity of T5 accuracy improvement (%
// change of p_Pc5 against the original) to maxl and ε.
func Fig15T5(ctx context.Context) ([]*Report, error) {
	var out []*Report

	maxls := []int{2, 3, 4, 5, 6}
	labels := make([]string, len(maxls))
	for i, l := range maxls {
		labels[i] = fmt.Sprintf("maxl=%d", l)
	}
	q, _, err := sweepMODis(ctx, func() *datagen.Workload { return datagen.T5Link(datagen.T5Config{}) },
		func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithMaxLevel(maxls[i]))
		}, labels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 15(a): T5 rImp(pPc5) vs maxl", Header: append([]string{"method"}, labels...), RowsOut: q})

	epsSet := []float64{0.5, 0.4, 0.3, 0.2, 0.1}
	elabels := make([]string, len(epsSet))
	for i, e := range epsSet {
		elabels[i] = fmt.Sprintf("eps=%.1f", e)
	}
	q, _, err = sweepMODis(ctx, func() *datagen.Workload { return datagen.T5Link(datagen.T5Config{}) },
		func(i int) []modis.Option {
			return append(sweepOptions(), modis.WithEpsilon(epsSet[i]))
		}, elabels, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, &Report{Title: "Figure 15(b): T5 rImp(pPc5) vs ε", Header: append([]string{"method"}, elabels...), RowsOut: q})
	return out, nil
}
