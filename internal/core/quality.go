package core

import (
	"math/rand"
	"sort"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
)

// maxExactTypes bounds the exhaustive enumeration in DetectionProbability;
// expressions touching more perturbed types fall back to sampling.
const maxExactTypes = 12

// DetectionProbability computes the probability that expr evaluates true
// over released indicators, given the true indicators and independent
// per-type flip probabilities. Types with no entry in flip are released
// deterministically.
//
// The computation enumerates all assignments of the perturbed types that
// expr references (exact for up to maxExactTypes such types) and therefore
// handles arbitrary expressions, including types that occur several times.
// Beyond the bound it estimates by sampling with rng (which must be non-nil
// in that case). expr must be valid (see cep.Query.Validate); it is
// compiled to a cep.Plan once per call.
func DetectionProbability(expr cep.Expr, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	return detectionProbability(indicatorPlan(expr), truth, flip, rng)
}

// indicatorPlan compiles an expression for answering over indicators. The
// expressions come from validated queries and pattern types, so compiling
// them cannot fail.
func indicatorPlan(expr cep.Expr) *cep.Plan {
	return cep.MustCompile(cep.Query{Name: "expr", Pattern: expr, Window: 1})
}

func indicatorPlans(exprs []cep.Expr) []*cep.Plan {
	plans := make([]*cep.Plan, len(exprs))
	for i, e := range exprs {
		plans[i] = indicatorPlan(e)
	}
	return plans
}

func detectionProbability(plan *cep.Plan, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	// Collect the perturbed types the expression actually references.
	var perturbed []event.Type
	for _, t := range plan.Query().Pattern.Types() {
		if p := flip[t]; p > 0 {
			perturbed = append(perturbed, t)
		}
	}
	sort.Slice(perturbed, func(i, j int) bool { return perturbed[i] < perturbed[j] })

	if len(perturbed) == 0 {
		if plan.EvalIndicators(truth) {
			return 1
		}
		return 0
	}

	if len(perturbed) <= maxExactTypes {
		return exactDetectionProbability(plan, truth, flip, perturbed)
	}
	return sampledDetectionProbability(plan, truth, flip, rng)
}

func exactDetectionProbability(plan *cep.Plan, truth map[event.Type]bool, flip map[event.Type]float64, perturbed []event.Type) float64 {
	released := make(map[event.Type]bool, len(truth))
	for k, v := range truth {
		released[k] = v
	}
	n := len(perturbed)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		w := 1.0
		for i, t := range perturbed {
			p := flip[t]
			flipped := mask&(1<<i) != 0
			if flipped {
				w *= p
				released[t] = !truth[t]
			} else {
				w *= 1 - p
				released[t] = truth[t]
			}
		}
		if w == 0 {
			continue
		}
		if plan.EvalIndicators(released) {
			total += w
		}
	}
	return total
}

func sampledDetectionProbability(plan *cep.Plan, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	const samples = 4096
	released := make(map[event.Type]bool, len(truth))
	keys := SortedTypes(truth)
	hits := 0
	for s := 0; s < samples; s++ {
		for _, k := range keys {
			if p := flip[k]; p > 0 && rng.Float64() < p {
				released[k] = !truth[k]
			} else {
				released[k] = truth[k]
			}
		}
		if plan.EvalIndicators(released) {
			hits++
		}
	}
	return float64(hits) / samples
}

// ExpectedConfusion computes the expected confusion counts of answering the
// target expressions over released indicators for every window, relative to
// the ground truth computed on the unperturbed indicators.
//
// The returned values are expectations: E[TP] = Σ P(detect) over truly
// positive windows, and so on. They are real-valued, so a float variant of
// the confusion matrix is used.
type ExpectedConfusion struct {
	TP, FP, FN, TN float64
}

// Precision returns E[TP]/(E[TP]+E[FP]) — the ratio-of-expectations
// estimate of precision (exact as window count grows).
func (c ExpectedConfusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		if c.FN == 0 {
			return 1
		}
		return 0
	}
	return c.TP / (c.TP + c.FP)
}

// Recall returns E[TP]/(E[TP]+E[FN]).
func (c ExpectedConfusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		if c.FP == 0 {
			return 1
		}
		return 0
	}
	return c.TP / (c.TP + c.FN)
}

// Q returns α·Prec + (1−α)·Rec.
func (c ExpectedConfusion) Q(alpha float64) float64 {
	return alpha*c.Precision() + (1-alpha)*c.Recall()
}

// ExpectedQuality computes the expected data quality Q = α·Prec + (1−α)·Rec
// of answering the target expressions under independent per-type flips, over
// a set of historical windows. This is the analytic oracle Algorithm 1 uses
// to score candidate budget distributions, replacing repeated noisy
// simulation with an exact expectation (a deliberate design choice — see
// DESIGN.md).
func ExpectedQuality(wins []IndicatorWindow, targets []cep.Expr, flip map[event.Type]float64, alpha float64, rng *rand.Rand) float64 {
	var c ExpectedConfusion
	plans := indicatorPlans(targets)
	for _, w := range wins {
		for _, p := range plans {
			truth := p.EvalIndicators(w.Present)
			pDetect := detectionProbability(p, w.Present, flip, rng)
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

// MeasuredQuality evaluates the realized quality of released indicator maps
// against ground truth, answering every target expression per window. This
// is the measurement used in experiments (Section VI): truth from the clean
// indicators, reports from the released ones.
func MeasuredQuality(wins []IndicatorWindow, released []map[event.Type]bool, targets []cep.Expr, alpha float64) (float64, metrics.Confusion) {
	var c metrics.Confusion
	plans := indicatorPlans(targets)
	for i, w := range wins {
		for _, p := range plans {
			truth := p.EvalIndicators(w.Present)
			reported := p.EvalIndicators(released[i])
			c.Add(truth, reported)
		}
	}
	return c.Q(alpha), c
}
