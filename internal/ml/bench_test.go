package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// leveledTable is a seeded table of n rows over nf integer features
// of L value levels each, with a noisy float target y, or with y cut
// into classes 0..classes-1 (⌊y⌋ mod classes) when classes > 0. rows
// is a seeded 70 % subset of its rows, the training split of a search
// state.
func leveledTable(n, nf, L, classes int) (u *table.Table, rows []int) {
	schema := table.Schema{}
	for f := 0; f < nf; f++ {
		schema = append(schema, table.Column{Name: fmt.Sprintf("f%d", f), Kind: table.KindInt})
	}
	yKind := table.KindFloat
	if classes > 0 {
		yKind = table.KindInt
	}
	schema = append(schema, table.Column{Name: "y", Kind: yKind})
	u = table.New("D_U", schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		row := make(table.Row, 0, nf+1)
		y := rng.NormFloat64()
		for f := 0; f < nf; f++ {
			l := rng.Intn(L)
			y += float64(l*(f%3)) * 0.3
			row = append(row, table.Int(int64(l)))
		}
		if classes > 0 {
			c := int(math.Floor(y)) % classes
			row = append(row, table.Int(int64((c+classes)%classes)))
		} else {
			row = append(row, table.Float(y))
		}
		u.MustAppend(row)
	}
	return u, rng.Perm(n)[:n*7/10]
}

// leveledView is a t1-shaped training view: a matrix view of 70 % of n
// rows over nf integer features of L value levels each, with a noisy
// float target.
func leveledView(n, nf, L int) *View {
	u, rows := leveledTable(n, nf, L, 0)
	return NewTableEncoder(u, "y").Matrix().View(rows, nil)
}

// t2Forest is the model of task t2: a forest of 12 depth-6 trees under
// seed 1 that samples √nf features per split.
func t2Forest() *ForestClassifier {
	return &ForestClassifier{Config: ForestConfig{NumTrees: 12, MaxDepth: 6, Seed: 1}, NumClass: 3}
}

// BenchmarkGBMFitLeveled times one t1-shaped boosting fit on the
// production path: FitData over a matrix view of 420 rows and ten
// features of four value levels, 30 trees of depth 3.
func BenchmarkGBMFitLeveled(b *testing.B) {
	v := leveledView(600, 10, 4)
	b.ReportAllocs()
	for b.Loop() {
		(&GBMRegressor{Config: GBMConfig{NumTrees: 30, MaxDepth: 3, Seed: 1}}).FitData(v)
	}
}

// BenchmarkSurrogateRefit times one refit of the MO-GBM surrogate's
// shape: FitColsTasks, run inline, over n observations of nf 0/1
// features and three targets, 40 trees of depth 3 per target. At n=60
// (an early refit) nodes are small and a split search's fixed cost
// shows; n=400 is a refit late in a long search. Their features are
// ones at half the rows. dense is an aged engine's history (nf 48,
// n 600), whose features are ones at 90–99 % of the rows because
// history states keep nearly every literal.
func BenchmarkSurrogateRefit(b *testing.B) {
	type refit struct {
		name          string
		n             int
		cols, targets [][]float64
	}
	var cases []refit
	for _, n := range []int{60, 400} {
		cols, targets := surrogateObservations(n, 24)
		cases = append(cases, refit{fmt.Sprintf("n=%d", n), n, cols, targets})
	}
	cols, targets := denseObservations(600, 48)
	cases = append(cases, refit{"dense", 600, cols, targets})
	cfg := GBMConfig{NumTrees: 40, MaxDepth: 3, LearningRate: 0.15, Seed: 7}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				fitCols(&MultiOutputGBM{Config: cfg}, c.n, c.cols, c.targets)
			}
		})
	}
}

// surrogateObservations is a seeded surrogate history: n observations
// of nf 0/1 features and three noisy targets that depend on the first
// nine features.
func surrogateObservations(n, nf int) (cols, targets [][]float64) {
	rng := rand.New(rand.NewSource(8))
	cols = make([][]float64, nf)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := range cols[f] {
			cols[f][i] = float64(rng.Intn(2))
		}
	}
	return cols, surrogateTargets(rng, cols, n)
}

// surrogateTargets draws three noisy targets over n observations that
// depend on the first nine features.
func surrogateTargets(rng *rand.Rand, cols [][]float64, n int) [][]float64 {
	targets := make([][]float64, 3)
	for j := range targets {
		targets[j] = make([]float64, n)
		for i := range targets[j] {
			targets[j][i] = cols[j][i] + 0.5*cols[j+3][i]*cols[j+6][i] + 0.1*rng.NormFloat64()
		}
	}
	return targets
}

// denseObservations is surrogateObservations over features whose ones
// density is drawn per feature from 90–99 %.
func denseObservations(n, nf int) (cols, targets [][]float64) {
	rng := rand.New(rand.NewSource(9))
	cols = make([][]float64, nf)
	for f := range cols {
		cols[f] = make([]float64, n)
		dens := 0.90 + 0.09*rng.Float64()
		for i := range cols[f] {
			if rng.Float64() < dens {
				cols[f][i] = 1
			}
		}
	}
	return cols, surrogateTargets(rng, cols, n)
}

// BenchmarkForestFitSmall times one t2-shaped forest fit at the size of
// a serve-append valuation: FitData over a 60-row matrix view of eight
// four-level features and three classes. At this size seeding the
// trees' sources is a visible share of the fit.
func BenchmarkForestFitSmall(b *testing.B) {
	u, rows := leveledTable(86, 8, 4, 3)
	v := NewTableEncoder(u, "y").Matrix().View(rows, nil)
	b.ReportAllocs()
	for b.Loop() {
		t2Forest().FitData(v)
	}
}

// BenchmarkSeedSource times one seeding of randSource, reused in place
// as a tree scratch's source is, against math/rand's source.
func BenchmarkSeedSource(b *testing.B) {
	b.Run("randSource", func(b *testing.B) {
		var src randSource
		seed := int64(0)
		for b.Loop() {
			seed++
			src.Seed(seed)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		seed := int64(0)
		for b.Loop() {
			seed++
			src.Seed(seed)
		}
	})
}
