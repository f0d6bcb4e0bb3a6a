package core

import (
	"fmt"
	"math/rand"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// AdaptiveConfig parameterizes the adaptive PPM (Algorithm 1).
type AdaptiveConfig struct {
	// Epsilon is the total pattern-level budget per private pattern type.
	Epsilon dp.Epsilon
	// Alpha weighs precision against recall in the quality metric Q.
	Alpha float64
	// StepFactor scales the step size: δε = StepFactor · m · ε. The paper
	// suggests δε = mε/100, i.e. StepFactor = 0.01, the default when 0.
	StepFactor float64
	// MaxIters bounds the outer optimization loop (the paper's loop can
	// plateau without converging; we cap it). Defaults to 100 when 0.
	MaxIters int
	// Seed drives any sampled probability estimates during fitting,
	// keeping the fit deterministic.
	Seed int64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.StepFactor == 0 {
		c.StepFactor = 0.01
	}
	if c.MaxIters == 0 {
		c.MaxIters = 100
	}
	return c
}

func (c AdaptiveConfig) validate() error {
	if !c.Epsilon.Valid() {
		return fmt.Errorf("core: invalid budget %v", c.Epsilon)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside [0,1]", c.Alpha)
	}
	if c.StepFactor < 0 {
		return fmt.Errorf("core: negative step factor %v", c.StepFactor)
	}
	if c.MaxIters < 0 {
		return fmt.Errorf("core: negative max iters %d", c.MaxIters)
	}
	return nil
}

// AdaptivePPM is the adaptive pattern-level PPM of Section V-B: it keeps the
// per-pattern total budget ε fixed but reallocates it across the pattern's
// elements with the bidirectional stepwise search of Algorithm 1, scoring
// candidate allocations by the expected data quality of the target queries
// over historical data (which data subjects grant the trusted engine access
// to under the system model).
//
// Implementation notes relative to the paper's pseudocode:
//   - Line 7 moves δε onto element i and takes δε/m from each other
//     element, which does not conserve Σε_i; we take δε/(m−1) instead so
//     the total budget is conserved exactly, and clamp at zero.
//   - Candidate allocations are scored with the exact expected quality
//     (ExpectedQuality) instead of a noisy simulated run, making the fit
//     deterministic.
//   - The loop requires strict improvement (the paper's ≥ admits infinite
//     plateau cycling) and is additionally bounded by MaxIters.
//
// With several private pattern types, each type's allocation is fitted in
// turn while the other types' perturbations are held fixed (coordinate
// descent over pattern types).
type AdaptivePPM struct {
	cfg     AdaptiveConfig
	private []PatternType
	dists   []*dp.Distribution
	flips   map[event.Type][]float64
	fitQ    float64
	iters   int
}

// NewAdaptivePPM fits the mechanism on historical windows. targets are the
// target-pattern expressions whose quality the fit maximizes; history holds
// the indicator windows of the historical data.
func NewAdaptivePPM(cfg AdaptiveConfig, history []IndicatorWindow, targets []cep.Expr, private ...PatternType) (*AdaptivePPM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: adaptive PPM needs at least one private pattern type")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: adaptive PPM needs at least one target expression")
	}
	if len(history) == 0 {
		return nil, fmt.Errorf("core: adaptive PPM needs historical windows")
	}
	a := &AdaptivePPM{cfg: cfg, private: private}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Line 1: start every pattern at the uniform allocation.
	for _, pt := range private {
		d, err := dp.UniformDistribution(cfg.Epsilon, pt.Len())
		if err != nil {
			return nil, err
		}
		a.dists = append(a.dists, d)
	}
	a.rebuildFlips()
	// The history is indexed once; every candidate below is scored on it.
	quality := newQualityScorer(history, targets, cfg.Alpha, rng)
	a.fitQ = quality.score(a.FlipProbs())

	// Coordinate descent over pattern types, Algorithm 1 within each.
	for k, pt := range private {
		q, iters := a.fitPattern(k, pt, quality)
		a.fitQ = q
		a.iters += iters
	}
	return a, nil
}

// fitPattern runs Algorithm 1 for pattern k with all other patterns fixed.
// It returns the fitted expected quality and the number of committed steps.
func (a *AdaptivePPM) fitPattern(k int, pt PatternType, quality *qualityScorer) (float64, int) {
	m := pt.Len()
	if m < 2 {
		// Nothing to reallocate; uniform is the only allocation.
		return a.fitQ, 0
	}
	// Line 2: step size δε = StepFactor · m · ε.
	step := dp.Epsilon(a.cfg.StepFactor * float64(m) * float64(a.cfg.Epsilon))
	if step <= 0 {
		return a.fitQ, 0
	}
	eval := func(d *dp.Distribution) float64 {
		saved := a.dists[k]
		a.dists[k] = d
		a.rebuildFlips()
		q := quality.score(a.FlipProbs())
		a.dists[k] = saved
		a.rebuildFlips()
		return q
	}
	bestQ := a.fitQ
	iters := 0
	for iters < a.cfg.MaxIters {
		// Lines 6–9: probe a step onto each element.
		bestI := -1
		bestCandQ := bestQ
		var bestCand *dp.Distribution
		for i := 0; i < m; i++ {
			cand := a.dists[k].Clone()
			if cand.Shift(i, step) == 0 {
				continue
			}
			if q := eval(cand); q > bestCandQ+1e-12 {
				bestI, bestCandQ, bestCand = i, q, cand
			}
		}
		// Lines 10–12: commit the best improving move, if any.
		if bestI < 0 {
			break
		}
		a.dists[k] = bestCand
		bestQ = bestCandQ
		iters++
	}
	a.rebuildFlips()
	return bestQ, iters
}

// rebuildFlips recomputes the per-type flip lists from the per-pattern
// element allocations. Duplicate element types within or across patterns
// contribute one independent flip each.
func (a *AdaptivePPM) rebuildFlips() {
	flips := make(map[event.Type][]float64)
	for k, pt := range a.private {
		probs := a.dists[k].FlipProbs()
		for i, t := range pt.Elements {
			flips[t] = append(flips[t], probs[i])
		}
	}
	a.flips = flips
}

// Name implements Mechanism.
func (a *AdaptivePPM) Name() string { return "adaptive" }

// TotalEpsilon implements Mechanism.
func (a *AdaptivePPM) TotalEpsilon() dp.Epsilon { return a.cfg.Epsilon }

// Private returns the configured private pattern types.
func (a *AdaptivePPM) Private() []PatternType { return a.private }

// Distribution returns the fitted allocation for pattern k.
func (a *AdaptivePPM) Distribution(k int) *dp.Distribution { return a.dists[k].Clone() }

// FittedQuality returns the expected quality of the final allocation on the
// historical data.
func (a *AdaptivePPM) FittedQuality() float64 { return a.fitQ }

// Iterations returns the number of committed optimization steps.
func (a *AdaptivePPM) Iterations() int { return a.iters }

// FlipProb returns the effective flip probability for one event type (the
// composition of all flips claiming it).
func (a *AdaptivePPM) FlipProb(t event.Type) float64 {
	eff := 0.0
	for _, p := range a.flips[t] {
		eff = eff*(1-p) + p*(1-eff)
	}
	return eff
}

// FlipProbs returns the effective per-type flip probabilities.
func (a *AdaptivePPM) FlipProbs() map[event.Type]float64 {
	out := make(map[event.Type]float64, len(a.flips))
	for t := range a.flips {
		out[t] = a.FlipProb(t)
	}
	return out
}

// PerturbWindow perturbs one window's indicators. Types are processed in
// sorted order so a seeded rng yields reproducible releases.
func (a *AdaptivePPM) PerturbWindow(rng *rand.Rand, present map[event.Type]bool) map[event.Type]bool {
	out := make(map[event.Type]bool, len(present))
	for _, t := range SortedTypes(present) {
		bit := present[t]
		for _, p := range a.flips[t] {
			if rng.Float64() < p {
				bit = !bit
			}
		}
		out[t] = bit
	}
	return out
}

// Run implements Mechanism.
func (a *AdaptivePPM) Run(rng *rand.Rand, wins []IndicatorWindow) []map[event.Type]bool {
	out := make([]map[event.Type]bool, len(wins))
	for i, w := range wins {
		out[i] = a.PerturbWindow(rng, w.Present)
	}
	return out
}
