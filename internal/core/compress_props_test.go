package core

import (
	"testing"

	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/token"
)

// The compression/estimator contract, as properties:
//
//  1. compression never inflates an estimate (per-prompt token counts
//     only shrink, so the means shrink too), and the per-level means are
//     monotone non-increasing (higher level keeps a subset of spans);
//  2. any budget feasible for TauForBudget on uncompressed estimates
//     stays feasible on compressed ones (the all-pruned floor is the
//     mean vanilla cost, which compression only lowers);
//  3. the cache and the compressor never double-discount: the cache
//     lookup sees the *compressed* prompt, an all-warm cache zeroes
//     both estimates, and warming one prompt removes exactly that
//     prompt's contribution.

func compressFixture(t testing.TB) (*fixture, predictors.Method) {
	fx := newFixture(t, 300, 60, 53)
	fx.ctx.IncludeAbstracts = true // compression's whole target is abstract text
	return fx, predictors.KHopRandom{K: 1}
}

func TestEstimateCompressedMonotoneInLevel(t *testing.T) {
	fx, m := compressFixture(t)
	prev := -1.0
	prevNb := -1.0
	for level := 0; level <= prompt.MaxCompressLevel; level++ {
		comp := prompt.Compressor{Level: level}
		perQuery, perNb := EstimateQueryTokensCompressed(fx.ctx, m, fx.split.Query, 0, comp, nil)
		if perQuery <= 0 {
			t.Fatalf("level %d: perQuery=%v, want > 0", level, perQuery)
		}
		if prev >= 0 && perQuery > prev {
			t.Errorf("level %d inflates perQuery: %v > %v at level %d", level, perQuery, prev, level-1)
		}
		if level > 0 && prevNb >= 0 && perNb > prevNb {
			// Higher level keeps a subset of each abstract's spans in
			// both the equipped and the vanilla prompt, so the mean
			// neighbor-text tokens shrink too.
			t.Errorf("level %d inflates perNeighbor: %v > %v", level, perNb, prevNb)
		}
		prev, prevNb = perQuery, perNb
	}

	// A token budget can only cut further below its level's estimate.
	base, _ := EstimateQueryTokensCompressed(fx.ctx, m, fx.split.Query, 0, prompt.Compressor{Level: 1}, nil)
	tight, _ := EstimateQueryTokensCompressed(fx.ctx, m, fx.split.Query, 0, prompt.Compressor{Level: 1, TargetTokens: 120}, nil)
	if tight > base {
		t.Errorf("TargetTokens inflated the estimate: %v > %v", tight, base)
	}
}

func TestTauForBudgetFeasibilityComposesWithCompression(t *testing.T) {
	fx, m := compressFixture(t)
	n := len(fx.split.Query)
	perQuery, perNb := EstimateQueryTokensCompressed(fx.ctx, m, fx.split.Query, 0, prompt.Compressor{}, nil)
	cQuery, cNb := EstimateQueryTokensCompressed(fx.ctx, m, fx.split.Query, 0, prompt.Compressor{Level: 2}, nil)
	if perNb <= 0 || cNb <= 0 {
		t.Fatalf("fixture has no neighbor text to prune (perNb=%v, cNb=%v)", perNb, cNb)
	}
	// Sweep budgets from infeasible-for-both through feasible-for-both.
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2} {
		budget := frac * float64(n) * perQuery
		tau, ok := TauForBudget(budget, n, perQuery, perNb)
		cTau, cOK := TauForBudget(budget, n, cQuery, cNb)
		if ok && !cOK {
			// The all-pruned floor is n·(perQuery−perNb) = the mean
			// vanilla prompt cost, which compression only lowers — a
			// budget the uncompressed plan can meet, the compressed one
			// can too.
			t.Errorf("budget %.0f: feasible uncompressed (τ=%.3f) but infeasible compressed (τ=%.3f)",
				budget, tau, cTau)
		}
		// At the same τ the compressed plan costs no more than the
		// uncompressed plan.
		cost := func(tau, q, nb float64) float64 {
			return tau*float64(n)*(q-nb) + (1-tau)*float64(n)*q
		}
		if c, u := cost(tau, cQuery, cNb), cost(tau, perQuery, perNb); c > u+1e-6 {
			t.Errorf("budget %.0f: compressed plan costs more at τ=%.3f: %.1f > %.1f", budget, tau, c, u)
		}
	}
}

func TestEstimateCompressedCacheNoDoubleDiscount(t *testing.T) {
	fx, m := compressFixture(t)
	comp := prompt.Compressor{Level: 2}
	queries := fx.split.Query
	n := float64(len(queries))

	// An all-warm cache zeroes both estimates: every answer is already
	// on disk, so neither compression nor anything else has tokens left
	// to discount.
	if q, nb := EstimateQueryTokensCompressed(fx.ctx, m, queries, 0, comp, func(string) bool { return true }); q != 0 || nb != 0 {
		t.Fatalf("all-warm cache: estimates (%v, %v), want (0, 0)", q, nb)
	}

	// The lookup must see the compressed equipped prompt — the bytes a
	// compressed run keys its cache with. Build the first query's prompt
	// both ways.
	v := queries[0]
	sel := m.Select(fx.ctx, v)
	rawWithNb := predictors.BuildPrompt(fx.ctx, v, sel, m.Ranked() && len(sel) > 0)
	withNb := comp.Compress(rawWithNb)
	if withNb == rawWithNb {
		t.Fatal("fixture prompt unchanged by compression; properties below would be vacuous")
	}
	vanilla := comp.Compress(predictors.BuildPrompt(fx.ctx, v, nil, false))

	allQ, allNb := EstimateQueryTokensCompressed(fx.ctx, m, queries, 0, comp, nil)

	// Warming the *uncompressed* bytes must not trigger the discount:
	// a compressed run never stores that key.
	if q, nb := EstimateQueryTokensCompressed(fx.ctx, m, queries, 0, comp, func(p string) bool { return p == rawWithNb }); q != allQ || nb != allNb {
		t.Errorf("uncompressed cache key discounted a compressed run: (%v, %v) != (%v, %v)", q, nb, allQ, allNb)
	}

	// Warming the compressed bytes removes exactly that query's
	// contribution from both means — once, not once per stage.
	gotQ, gotNb := EstimateQueryTokensCompressed(fx.ctx, m, queries, 0, comp, func(p string) bool { return p == withNb })
	wantQ := allQ - float64(token.Count(withNb))/n
	wantNb := allNb - float64(token.Count(withNb)-token.Count(vanilla))/n
	const eps = 1e-9
	if diff := gotQ - wantQ; diff > eps || diff < -eps {
		t.Errorf("one-warm perQuery %v, want %v", gotQ, wantQ)
	}
	if diff := gotNb - wantNb; diff > eps || diff < -eps {
		t.Errorf("one-warm perNeighbor %v, want %v", gotNb, wantNb)
	}
}

// TestEstimateCompressedPinned pins the estimator's averages on a
// seeded 25-query sample, for both selection styles, with and without
// compression and a token budget. The figures are token sums over 25,
// so they compare exactly.
func TestEstimateCompressedPinned(t *testing.T) {
	fx, m := compressFixture(t)
	for _, tc := range []struct {
		m          predictors.Method
		comp       prompt.Compressor
		perQuery   float64
		perNbrText float64
	}{
		{m, prompt.Compressor{}, 1353.96, 962.12},
		{m, prompt.Compressor{Level: 1}, 554.92, 367.36},
		{m, prompt.Compressor{Level: 2, TargetTokens: 150}, 258.08, 118.52},
		{predictors.SNS{}, prompt.Compressor{}, 1684.6, 1292.76},
		{predictors.SNS{}, prompt.Compressor{Level: 1}, 689.12, 501.56},
		{predictors.SNS{}, prompt.Compressor{Level: 2, TargetTokens: 150}, 313.76, 174.2},
	} {
		q, nb := EstimateQueryTokensCompressed(fx.ctx, tc.m, fx.split.Query, 25, tc.comp, nil)
		if q != tc.perQuery || nb != tc.perNbrText {
			t.Errorf("%s %+v: estimate (%v, %v), want (%v, %v)", tc.m.Name(), tc.comp, q, nb, tc.perQuery, tc.perNbrText)
		}
	}
}
