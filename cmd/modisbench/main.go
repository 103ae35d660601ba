// Command modisbench regenerates every table and figure of the MODis
// paper's evaluation over the synthetic data lakes; -list prints the
// experiment index.
//
// Usage:
//
//	modisbench -exp all
//	modisbench -exp table4_t2,fig8_eps -timeout 10m
//	modisbench -list
//
// Every experiment runs its searches through the public modis engine
// (repro/modis) and honors the -timeout deadline via context.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

type experiment struct {
	id   string
	desc string
	run  func(ctx context.Context) ([]*exp.Report, error)
}

func single(f func(ctx context.Context) (*exp.Report, error)) func(ctx context.Context) ([]*exp.Report, error) {
	return func(ctx context.Context) ([]*exp.Report, error) {
		r, err := f(ctx)
		if err != nil {
			return nil, err
		}
		return []*exp.Report{r}, nil
	}
}

func experiments() []experiment {
	return []experiment{
		{"table4_t2", "Table 4: methods comparison on T2 (house)", single(exp.Table4T2)},
		{"table4_t4", "Table 4: methods comparison on T4 (mental)", single(exp.Table4T4)},
		{"table5_t5", "Table 5: MODis methods on T5 (link regression)", single(exp.Table5T5)},
		{"table6_t1", "Table 6: methods comparison on T1 (movie)", single(exp.Table6T1)},
		{"table6_t3", "Table 6: methods comparison on T3 (avocado)", single(exp.Table6T3)},
		{"fig7", "Figure 7: effectiveness radar on T1, T3", exp.Fig7},
		{"fig8_eps", "Figure 8(a,c): quality vs epsilon", exp.Fig8Epsilon},
		{"fig8_maxl", "Figure 8(b,d): quality vs maxl", exp.Fig8MaxL},
		{"fig9", "Figure 9: DivMODis vs alpha", single(exp.Fig9Alpha)},
		{"fig10_eff", "Figure 10(a,b)+13(d): efficiency vs eps/maxl", exp.Fig10Efficiency},
		{"fig10_scal", "Figure 10(c,d): scalability vs |A|, |adom|", exp.Fig10Scalability},
		{"fig13", "Figure 13(a,b): T5 efficiency", exp.Fig13T5},
		{"fig14", "Figure 14: T5 scalability", exp.Fig14T5},
		{"fig15", "Figure 15: T5 sensitivity", exp.Fig15T5},
		{"case1", "Case study 1: find data with models", single(exp.Case1)},
		{"case2", "Case study 2: test data generation under bounds", single(exp.Case2)},
	}
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	timeout := flag.Duration("timeout", 0, "overall deadline for the selected experiments (0 = none)")
	parallel := flag.Int("parallel", 1, "valuation workers per discovery run (0 = all CPUs, 1 = sequential); results are identical at any setting")
	flag.Parse()
	exp.DefaultParallelism = *parallel

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	all := experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("%-12s %s\n", e.id, e.desc)
		}
		return
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}

	ran := 0
	for _, e := range all {
		if !runAll && !want[e.id] {
			continue
		}
		reports, err := e.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modisbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		for _, r := range reports {
			fmt.Println(r.String())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "modisbench: no experiment matched %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
}
