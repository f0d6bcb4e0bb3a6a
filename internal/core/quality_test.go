package core

import (
	"math"
	"math/rand"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/event"
)

// expectedQualityOracle is ExpectedQuality defined window by window: every
// (window, target) pair compiles its target and computes its detection
// probability on its own, consuming rng in window-major, target-minor
// order. The indexed qualityScorer must reproduce it exactly.
func expectedQualityOracle(wins []IndicatorWindow, targets []cep.Expr, flip map[event.Type]float64, alpha float64, rng *rand.Rand) float64 {
	var c ExpectedConfusion
	for _, w := range wins {
		for _, e := range targets {
			truth := indicatorPlan(e).EvalIndicators(w.Present)
			pDetect := DetectionProbability(e, w.Present, flip, rng)
			if truth {
				c.TP += pDetect
				c.FN += 1 - pDetect
			} else {
				c.FP += pDetect
				c.TN += 1 - pDetect
			}
		}
	}
	return c.Q(alpha)
}

// sparsePresence draws a presence map in which each type is true, false or
// missing, so absent types read as false.
func sparsePresence(rng *rand.Rand, types []event.Type) map[event.Type]bool {
	out := make(map[event.Type]bool, len(types))
	for _, t := range types {
		switch rng.Intn(3) {
		case 0:
			out[t] = true
		case 1:
			out[t] = false
		}
	}
	return out
}

func sparseHistory(rng *rand.Rand, types []event.Type, n int) []IndicatorWindow {
	wins := make([]IndicatorWindow, n)
	for i := range wins {
		wins[i] = IndicatorWindow{Index: i, Present: sparsePresence(rng, types)}
	}
	return wins
}

// everyType references each type as a tautology, so AND-ing it onto an
// expression keeps its answer but makes every type perturbable.
func everyType(types []event.Type) []cep.Expr {
	parts := make([]cep.Expr, len(types))
	for i, t := range types {
		parts[i] = cep.OrOf(cep.E(t), cep.NegOf(cep.E(t)))
	}
	return parts
}

// TestQualityScorerMatchesOracle scores random exact targets — the full
// operator set including OR and NEG, a duplicated type and types missing
// from flip — over sparse random histories, and requires the scorer to
// equal the per-window oracle bit for bit. One scorer serves several flip
// vectors in turn, as in a fit.
func TestQualityScorerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	types := oracleTypes(6)
	for trial := 0; trial < 60; trial++ {
		wins := sparseHistory(rng, types, 1+rng.Intn(40))
		targets := []cep.Expr{
			randomOracleExpr(rng, types, 2),
			randomOracleExpr(rng, types, 3),
			cep.SeqTypes(types[0], types[0], types[1]),
		}
		alpha := rng.Float64()
		seed := rng.Int63()
		s := newQualityScorer(wins, targets, alpha, rand.New(rand.NewSource(seed)))
		oracleRng := rand.New(rand.NewSource(seed))
		for k := 0; k < 4; k++ {
			flip := randomFlips(rng, types)
			got := s.score(flip)
			want := expectedQualityOracle(wins, targets, flip, alpha, oracleRng)
			if got != want {
				t.Fatalf("trial %d flip %d: scorer %v, oracle %v (targets %v, flip %v)", trial, k, got, want, targets, flip)
			}
		}
	}
}

// TestQualityScorerSampledTargetsMatchOracle mixes two sampled targets (more
// than maxExactTypes perturbed types) with one exact target under one rng
// seed: the sampled targets must draw from rng in the oracle's order.
func TestQualityScorerSampledTargetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	types := oracleTypes(16)
	atoms := make([]cep.Expr, len(types))
	for i, ty := range types {
		atoms[i] = cep.E(ty)
	}
	for trial := 0; trial < 3; trial++ {
		wins := sparseHistory(rng, types, 12)
		targets := []cep.Expr{
			cep.AndOf(append([]cep.Expr{randomOracleExpr(rng, types, 2)}, everyType(types)...)...),
			randomOracleExpr(rng, types[:5], 3),
			cep.OrOf(atoms...),
		}
		flip := make(map[event.Type]float64)
		for _, ty := range types[2:] { // types[0] and types[1] are never flipped
			flip[ty] = 0.05 + rng.Float64()/3
		}
		for _, i := range []int{0, 2} {
			if n := len(perturbedTypes(nil, targets[i].Types(), flip)); n <= maxExactTypes {
				t.Fatalf("target %d has %d perturbed types; it would not be sampled", i, n)
			}
		}
		const seed = 59
		got := newQualityScorer(wins, targets, 0.5, rand.New(rand.NewSource(seed))).score(flip)
		want := expectedQualityOracle(wins, targets, flip, 0.5, rand.New(rand.NewSource(seed)))
		if got != want {
			t.Fatalf("trial %d: scorer %v, oracle %v", trial, got, want)
		}
	}
}

// TestSampledDetectionFlipsAbsentTypes checks that the sampled estimate
// perturbs referenced types a sparse truth map leaves out, as the exact
// enumeration does: OR of n types that are all absent and flip with
// probability 1/2 is detected with probability 1 − 2^−n.
func TestSampledDetectionFlipsAbsentTypes(t *testing.T) {
	for _, n := range []int{maxExactTypes, maxExactTypes + 1} {
		types := oracleTypes(n)
		atoms := make([]cep.Expr, n)
		flip := make(map[event.Type]float64, n)
		for i, ty := range types {
			atoms[i] = cep.E(ty)
			flip[ty] = 0.5
		}
		got := DetectionProbability(cep.OrOf(atoms...), map[event.Type]bool{}, flip, rand.New(rand.NewSource(1)))
		if want := 1 - math.Pow(2, -float64(n)); math.Abs(got-want) > 0.01 {
			t.Errorf("OR of %d absent types: P = %v, want %v", n, got, want)
		}
	}
}
