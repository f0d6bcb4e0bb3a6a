package core

import (
	"math/rand"
	"slices"

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
// deterministically, and types absent from truth are false.
//
// The computation enumerates all assignments of the perturbed types that
// expr references (exact for up to maxExactTypes such types) and therefore
// handles arbitrary expressions, including types that occur several times.
// Beyond the bound it estimates by sampling with rng (which must be non-nil
// in that case). expr must be valid (see cep.Query.Validate); it is
// compiled to a cep.Plan once per call.
func DetectionProbability(expr cep.Expr, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	plan := indicatorPlan(expr)
	types := plan.Query().Pattern.Types()
	return detectionProbability(plan, project(truth, types), flip, perturbedTypes(nil, types, flip), rng)
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

// project returns truth restricted to types, with an entry for every one of
// them: the only indicators a plan over those types reads.
func project(truth map[event.Type]bool, types []event.Type) map[event.Type]bool {
	out := make(map[event.Type]bool, len(types))
	for _, t := range types {
		out[t] = truth[t]
	}
	return out
}

// perturbedTypes appends to dst the types with a positive flip probability,
// sorted so that enumeration and sampling visit them in a fixed order.
func perturbedTypes(dst, types []event.Type, flip map[event.Type]float64) []event.Type {
	for _, t := range types {
		if flip[t] > 0 {
			dst = append(dst, t)
		}
	}
	slices.Sort(dst)
	return dst
}

// detectionProbability is DetectionProbability for a compiled plan.
// present holds the clean indicator of every type the plan references and
// perturbed the sorted referenced types with a positive flip probability.
// The enumeration and the sampling release into present in place and
// restore it before returning.
func detectionProbability(plan *cep.Plan, present map[event.Type]bool, flip map[event.Type]float64, perturbed []event.Type, rng *rand.Rand) float64 {
	switch {
	case len(perturbed) == 0:
		if plan.EvalIndicators(present) {
			return 1
		}
		return 0
	case len(perturbed) <= maxExactTypes:
		var buf [maxExactTypes]bool
		return exactDetectionProbability(plan, present, cleanValues(buf[:0], present, perturbed), flip, perturbed)
	default:
		return sampledDetectionProbability(plan, present, cleanValues(nil, present, perturbed), flip, perturbed, rng)
	}
}

// cleanValues appends to dst the clean indicators of perturbed, the values
// restore writes back.
func cleanValues(dst []bool, present map[event.Type]bool, perturbed []event.Type) []bool {
	for _, t := range perturbed {
		dst = append(dst, present[t])
	}
	return dst
}

func exactDetectionProbability(plan *cep.Plan, released map[event.Type]bool, truth []bool, flip map[event.Type]float64, perturbed []event.Type) float64 {
	defer restore(released, truth, perturbed)
	n := len(perturbed)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		w := 1.0
		for i, t := range perturbed {
			p := flip[t]
			flipped := mask&(1<<i) != 0
			if flipped {
				w *= p
				released[t] = !truth[i]
			} else {
				w *= 1 - p
				released[t] = truth[i]
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

func sampledDetectionProbability(plan *cep.Plan, released map[event.Type]bool, truth []bool, flip map[event.Type]float64, perturbed []event.Type, rng *rand.Rand) float64 {
	const samples = 4096
	defer restore(released, truth, perturbed)
	hits := 0
	for s := 0; s < samples; s++ {
		for i, t := range perturbed {
			released[t] = truth[i] != (rng.Float64() < flip[t])
		}
		if plan.EvalIndicators(released) {
			hits++
		}
	}
	return float64(hits) / samples
}

// restore writes the clean indicators of perturbed back into released.
func restore(released map[event.Type]bool, truth []bool, perturbed []event.Type) {
	for i, t := range perturbed {
		released[t] = truth[i]
	}
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
	return newQualityScorer(wins, targets, alpha, rng).score(flip)
}

// qualityScorer is ExpectedQuality indexed for one history and target set,
// which Algorithm 1 scores against many flip vectors. Each target is
// compiled once, and the windows are grouped by their projection onto the
// types the target references: the clean answer and every exact detection
// probability depend on that projection alone, so they are computed once
// per distinct projection rather than once per window.
//
// A qualityScorer is not safe for concurrent use.
type qualityScorer struct {
	targets []scoredTarget
	windows int
	alpha   float64
	rng     *rand.Rand
}

// scoredTarget is one target's index over the history.
type scoredTarget struct {
	plan  *cep.Plan
	types []event.Type
	// proj holds one projection per distinct key, clean its answer, and
	// group the index into proj of each window's key.
	proj  []map[event.Type]bool
	clean []bool
	group []int32
	// perturbed and pd are working buffers of score: the sorted perturbed
	// types and, when there are at most maxExactTypes of them, the
	// detection probability of each projection.
	perturbed []event.Type
	pd        []float64
}

func newQualityScorer(wins []IndicatorWindow, targets []cep.Expr, alpha float64, rng *rand.Rand) *qualityScorer {
	s := &qualityScorer{targets: make([]scoredTarget, len(targets)), windows: len(wins), alpha: alpha, rng: rng}
	for i, e := range targets {
		t := &s.targets[i]
		t.plan = indicatorPlan(e)
		t.types = t.plan.Query().Pattern.Types()
		t.group = make([]int32, len(wins))
		// The key is the projection as a bitmask, one bit per referenced
		// type in Types order.
		key := make([]byte, (len(t.types)+7)/8)
		index := make(map[string]int32)
		for w, win := range wins {
			clear(key)
			for j, ty := range t.types {
				if win.Present[ty] {
					key[j/8] |= 1 << (j % 8)
				}
			}
			g, ok := index[string(key)]
			if !ok {
				g = int32(len(t.proj))
				index[string(key)] = g
				p := project(win.Present, t.types)
				t.proj = append(t.proj, p)
				t.clean = append(t.clean, t.plan.EvalIndicators(p))
			}
			t.group[w] = g
		}
		t.pd = make([]float64, len(t.proj))
	}
	return s
}

// score returns ExpectedQuality for flip. It accumulates the expected
// confusion counts window by window and target by target, the order of the
// per-window definition, so its result is bit-identical to it; a sampled
// target draws from rng in that same order.
func (s *qualityScorer) score(flip map[event.Type]float64) float64 {
	for i := range s.targets {
		t := &s.targets[i]
		t.perturbed = perturbedTypes(t.perturbed[:0], t.types, flip)
		if len(t.perturbed) > maxExactTypes {
			continue
		}
		for g, p := range t.proj {
			t.pd[g] = detectionProbability(t.plan, p, flip, t.perturbed, nil)
		}
	}
	var c ExpectedConfusion
	for w := 0; w < s.windows; w++ {
		for i := range s.targets {
			t := &s.targets[i]
			g := t.group[w]
			pDetect := t.pd[g]
			if len(t.perturbed) > maxExactTypes {
				pDetect = detectionProbability(t.plan, t.proj[g], flip, t.perturbed, s.rng)
			}
			if t.clean[g] {
				c.TP += pDetect
				c.FN += 1 - pDetect
			} else {
				c.FP += pDetect
				c.TN += 1 - pDetect
			}
		}
	}
	return c.Q(s.alpha)
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
