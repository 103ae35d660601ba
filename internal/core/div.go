package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/fst"
	"repro/internal/stats"
)

// Dis quantifies the difference of two candidates: a convex combination
// of content distance (cosine over bitmaps) and performance distance
// (normalized euclidean over vectors), per Section 5.4.
//
//	dis(Di, Dj) = α·(1-cos(Li, Lj))/2 + (1-α)·euc(Pi, Pj)/eucm
func Dis(a, b *Candidate, alpha, eucMax float64) float64 {
	content := (1 - bitsCosine(a.Bits, b.Bits)) / 2
	perf := stats.Euclidean(a.Perf, b.Perf)
	if eucMax > 0 {
		perf /= eucMax
	}
	return alpha*content + (1-alpha)*perf
}

// bitsCosine is the cosine similarity of two bitmaps viewed as 0/1
// vectors — |a ∧ b| / sqrt(|a|·|b|) by popcount, computed without
// float materialization. Degenerate inputs (lengths differ, empty, or
// either bitmap all zero) give 0.
func bitsCosine(a, b fst.Bitmap) float64 {
	if a.Len() != b.Len() || a.Len() == 0 {
		return 0
	}
	na, nb := a.Ones(), b.Ones()
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(a.AndOnes(b)) / math.Sqrt(float64(na)*float64(nb))
}

// Div is the diversification score of Equation (2): the sum of pairwise
// distances over the candidate set.
func Div(set []*Candidate, alpha, eucMax float64) float64 {
	var s float64
	for i := 0; i < len(set)-1; i++ {
		for j := i + 1; j < len(set); j++ {
			s += Dis(set[i], set[j], alpha, eucMax)
		}
	}
	return s
}

// maxEuc returns the maximum pairwise euclidean distance of the run's
// tests' performance vectors, the normalizer euc_m of dis.
func maxEuc(all []*fst.Test) float64 {
	best := 0.0
	for i := 0; i < len(all)-1; i++ {
		for j := i + 1; j < len(all); j++ {
			if d := stats.Euclidean(all[i].Perf, all[j].Perf); d > best {
				best = d
			}
		}
	}
	return best
}

// diversifyStep is Algorithm 3: the level-wise greedy
// selection-and-replace that keeps at most k candidates maximizing Div.
func diversifyStep(set []*Candidate, k int, alpha, eucMax float64, rng *rand.Rand) []*Candidate {
	if len(set) <= k {
		return set
	}
	perm := rng.Perm(len(set))
	chosen := make([]*Candidate, k)
	inChosen := map[*Candidate]bool{}
	for i := 0; i < k; i++ {
		chosen[i] = set[perm[i]]
		inChosen[chosen[i]] = true
	}
	score := Div(chosen, alpha, eucMax)
	for i := range chosen {
		for _, cand := range set {
			if inChosen[cand] {
				continue
			}
			old := chosen[i]
			chosen[i] = cand
			if ns := Div(chosen, alpha, eucMax); ns > score {
				score = ns
				delete(inChosen, old)
				inChosen[cand] = true
			} else {
				chosen[i] = old
			}
		}
	}
	return chosen
}

// DivMODis extends the bi-directional generation with the level-wise
// diversification of Section 5.4: after each round of frontier
// expansions the ε-skyline set is restricted to a k-subset maximizing
// the submodular diversification score Div, achieving a
// 1/4-approximation (Lemma 5). Children valuate in progressive windows
// through the run's Valuator (exact inferences on the worker pool,
// deterministic child-order commit), so any parallelism degree
// reproduces the sequential skyline. The context is checked at
// frontier-pop and window granularity: cancellation or deadline expiry
// drains the pool and returns ctx.Err() with no partial result.
func DivMODis(ctx context.Context, cfg *fst.Config, opts Options) (*Result, error) {
	return search(ctx, cfg, opts, spec{algo: "div", backward: true, diversify: true})
}
