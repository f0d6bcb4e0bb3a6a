package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
)

// The quality oracle and the correlation estimator answer through compiled
// plans. The tests below recompute each of them with the reference
// interpreter cep.EvalIndicators over seeded random expressions and require
// identical results.

// oracleTypes returns the type alphabet t0..t(n-1).
func oracleTypes(n int) []event.Type {
	out := make([]event.Type, n)
	for i := range out {
		out[i] = event.Type(fmt.Sprintf("t%d", i))
	}
	return out
}

// randomOracleExpr builds a random expression over the full operator set.
func randomOracleExpr(rng *rand.Rand, types []event.Type, depth int) cep.Expr {
	leaf := func() cep.Expr { return cep.E(types[rng.Intn(len(types))]) }
	if depth <= 0 {
		return leaf()
	}
	sub := func() cep.Expr { return randomOracleExpr(rng, types, depth-1) }
	switch rng.Intn(6) {
	case 0:
		return cep.SeqOf(sub(), sub(), sub())
	case 1:
		return cep.AndOf(sub(), sub())
	case 2:
		return cep.OrOf(sub(), sub())
	case 3:
		return cep.NegOf(sub())
	case 4:
		return cep.TimesOf(sub(), 1+rng.Intn(2), 0)
	default:
		return leaf()
	}
}

func randomPresence(rng *rand.Rand, types []event.Type) map[event.Type]bool {
	out := make(map[event.Type]bool, len(types))
	for _, t := range types {
		out[t] = rng.Intn(2) == 0
	}
	return out
}

func randomFlips(rng *rand.Rand, types []event.Type) map[event.Type]float64 {
	out := make(map[event.Type]float64, len(types))
	for _, t := range types {
		if rng.Intn(4) > 0 {
			out[t] = rng.Float64() / 2
		}
	}
	return out
}

// referenceDetectionProbability is DetectionProbability written against
// cep.EvalIndicators, consuming rng in the same order.
func referenceDetectionProbability(expr cep.Expr, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	var perturbed []event.Type
	for _, t := range SortedTypes(typeSet(expr.Types())) {
		if flip[t] > 0 {
			perturbed = append(perturbed, t)
		}
	}
	released := make(map[event.Type]bool, len(truth))
	for k, v := range truth {
		released[k] = v
	}
	if len(perturbed) > maxExactTypes {
		hits := 0
		for s := 0; s < 4096; s++ {
			for _, t := range perturbed {
				released[t] = truth[t]
				if rng.Float64() < flip[t] {
					released[t] = !truth[t]
				}
			}
			if cep.EvalIndicators(expr, released) {
				hits++
			}
		}
		return float64(hits) / 4096
	}
	total := 0.0
	for mask := 0; mask < 1<<len(perturbed); mask++ {
		w := 1.0
		for i, t := range perturbed {
			released[t] = truth[t]
			if mask&(1<<i) != 0 {
				w *= flip[t]
				released[t] = !truth[t]
			} else {
				w *= 1 - flip[t]
			}
		}
		if w > 0 && cep.EvalIndicators(expr, released) {
			total += w
		}
	}
	return total
}

func typeSet(ts []event.Type) map[event.Type]bool {
	out := make(map[event.Type]bool, len(ts))
	for _, t := range ts {
		out[t] = true
	}
	return out
}

func TestDetectionProbabilityMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct{ alphabet, trials int }{{5, 150}, {16, 30}} { // 16 types force sampling
		alphabet, trials := c.alphabet, c.trials
		types := oracleTypes(alphabet)
		sampled := 0
		for trial := 0; trial < trials; trial++ {
			expr := randomOracleExpr(rng, types, 3)
			if alphabet > maxExactTypes {
				// Reference every type so the sampled path is taken.
				parts := []cep.Expr{expr}
				for _, ty := range types {
					parts = append(parts, cep.OrOf(cep.E(ty), cep.NegOf(cep.E(ty))))
				}
				expr = cep.AndOf(parts...)
			}
			truth := randomPresence(rng, types)
			flip := randomFlips(rng, types)
			seed := rng.Int63()
			got := DetectionProbability(expr, truth, flip, rand.New(rand.NewSource(seed)))
			want := referenceDetectionProbability(expr, truth, flip, rand.New(rand.NewSource(seed)))
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: DetectionProbability %v, interpreter %v", expr, got, want)
			}
			n := 0
			for ty := range typeSet(expr.Types()) {
				if flip[ty] > 0 {
					n++
				}
			}
			if n > maxExactTypes {
				sampled++
			}
		}
		if alphabet > maxExactTypes && sampled == 0 {
			t.Fatal("no trial exercised the sampled estimate")
		}
	}
}

func TestQualityAndCorrelationsMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	types := oracleTypes(6)
	for trial := 0; trial < 40; trial++ {
		wins := make([]IndicatorWindow, 30)
		released := make([]map[event.Type]bool, len(wins))
		for i := range wins {
			wins[i] = IndicatorWindow{Index: i, Present: randomPresence(rng, types)}
			released[i] = randomPresence(rng, types)
		}
		targets := []cep.Expr{randomOracleExpr(rng, types, 2), randomOracleExpr(rng, types, 3)}

		var want metrics.Confusion
		for i, w := range wins {
			for _, e := range targets {
				want.Add(cep.EvalIndicators(e, w.Present), cep.EvalIndicators(e, released[i]))
			}
		}
		if q, got := MeasuredQuality(wins, released, targets, 0.5); got != want || q != want.Q(0.5) {
			t.Fatalf("trial %d: MeasuredQuality %v %+v, interpreter %v %+v", trial, q, got, want.Q(0.5), want)
		}

		flip := randomFlips(rng, types)
		var exp ExpectedConfusion
		for _, w := range wins {
			for _, e := range targets {
				pd := referenceDetectionProbability(e, w.Present, flip, nil)
				if cep.EvalIndicators(e, w.Present) {
					exp.TP, exp.FN = exp.TP+pd, exp.FN+(1-pd)
				} else {
					exp.FP, exp.TN = exp.FP+pd, exp.TN+(1-pd)
				}
			}
		}
		if got := ExpectedQuality(wins, targets, flip, 0.5, nil); got != exp.Q(0.5) {
			t.Fatalf("trial %d: ExpectedQuality %v, interpreter %v", trial, got, exp.Q(0.5))
		}

		pt := mustPT(t, "p", types[rng.Intn(3)], types[3+rng.Intn(3)])
		cors, err := EstimateCorrelations(wins, pt, types)
		if err != nil {
			t.Fatal(err)
		}
		if len(cors) != len(types)-2 {
			t.Fatalf("trial %d: %d correlations for %d candidates", trial, len(cors), len(types)-2)
		}
		pat := 0.0
		for _, w := range wins {
			if cep.EvalIndicators(pt.Expr(), w.Present) {
				pat++
			}
		}
		for _, c := range cors {
			var both, ev float64
			for _, w := range wins {
				if w.Present[c.Type] {
					ev++
					if cep.EvalIndicators(pt.Expr(), w.Present) {
						both++
					}
				}
			}
			n := float64(len(wins))
			if c.Support != ev/n {
				t.Fatalf("trial %d %s: support %v, interpreter %v", trial, c.Type, c.Support, ev/n)
			}
			if ev > 0 && pat > 0 && c.Lift != (both/ev)/(pat/n) {
				t.Fatalf("trial %d %s: lift %v, interpreter %v", trial, c.Type, c.Lift, (both/ev)/(pat/n))
			}
		}
	}
}
