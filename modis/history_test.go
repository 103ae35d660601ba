package modis_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/modis"
)

// TestWarmRunDecidesFromOwnHistory: a run decides only from the tests
// it committed itself, so a prior job on the same engine, whose
// valuations sit in the shared memo, moves neither bi's prune (its
// correlation graph and parameterized ranges) nor div's normaliser.
// Each cell runs the prior job and then the algorithm on one engine,
// unbudgeted with the surrogate off, and compares the second run with
// the same run on a fresh engine. The shapes are t4 on a narrow
// attribute mix (a 12-entry space), chosen where reading the prior
// job's valuations changes the answer: the fresh bi run prunes 10
// states, and div's normaliser grows with the prior job's states.
func TestWarmRunDecidesFromOwnHistory(t *testing.T) {
	for _, c := range []struct {
		rows        int
		eps         float64
		prior, algo string
	}{
		{80, 0.15, "apx", "bi"},
		{140, 0.1, "apx", "div"},
	} {
		t.Run(fmt.Sprintf("%s-then-%s", c.prior, c.algo), func(t *testing.T) {
			ctx := context.Background()
			w := datagen.T4Mental(datagen.TaskConfig{Rows: c.rows, InfoAttrs: 2, NoiseAttrs: 1, AdomK: 2})
			opts := []modis.Option{modis.WithMaxLevel(2), modis.WithEpsilon(c.eps)}
			fresh, err := modis.NewEngine(w.NewConfig(false)).Run(ctx, c.algo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			eng := modis.NewEngine(w.NewConfig(false))
			if _, err := eng.Run(ctx, c.prior, opts...); err != nil {
				t.Fatal(err)
			}
			warm, err := eng.Run(ctx, c.algo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if c.algo == "bi" && fresh.Pruned == 0 {
				t.Fatal("fresh bi pruned nothing; the prune comparison would be vacuous")
			}
			if warm.Pruned != fresh.Pruned {
				t.Errorf("pruned %d after a prior %s job, %d on a fresh engine", warm.Pruned, c.prior, fresh.Pruned)
			}
			if got, want := streamSkylineJSON(t, warm), streamSkylineJSON(t, fresh); got != want {
				t.Errorf("skyline after a prior %s job diverged from a fresh engine:\nfresh %s\nwarm  %s", c.prior, want, got)
			}
		})
	}
}
