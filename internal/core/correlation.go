package core

import (
	"fmt"
	"math"
	"sort"

	"patterndp/internal/event"
)

// This file implements the paper's Section V-C "future improvements": data
// subjects and consumers are not privacy experts, so their classification of
// relevant events can be incomplete. The engine can estimate correlations
// between events and private patterns from historical data and surface
// latent relationships — events that statistically reveal the private
// pattern even though they are not registered as its elements.

// Correlation is the estimated association between one event type and the
// occurrence of a private pattern, measured per historical window.
type Correlation struct {
	// Type is the candidate event type.
	Type event.Type
	// Phi is the phi coefficient (Pearson correlation of two binary
	// variables) between the event's presence and the pattern's presence,
	// in [-1, 1].
	Phi float64
	// Support is the fraction of windows where the event was present.
	Support float64
	// Lift is P(pattern | event) / P(pattern); > 1 means the event makes
	// the pattern more likely. 0 when undefined.
	Lift float64
}

// EstimateCorrelations measures, over historical windows, how strongly each
// candidate event type correlates with the private pattern's occurrence.
// Types that are already elements of the pattern are skipped. Results are
// sorted by |Phi| descending.
func EstimateCorrelations(history []IndicatorWindow, pt PatternType, candidates []event.Type) ([]Correlation, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("core: no historical windows")
	}
	elements := pt.ElementSet()
	plan := indicatorPlan(pt.Expr())
	n := float64(len(history))

	// Pattern presence per window.
	patPresent := make([]bool, len(history))
	patCount := 0.0
	for i, w := range history {
		patPresent[i] = plan.EvalIndicators(w.Present)
		if patPresent[i] {
			patCount++
		}
	}
	pPat := patCount / n

	var out []Correlation
	for _, t := range candidates {
		if elements[t] {
			continue
		}
		var both, evOnly, patOnly, neither float64
		for i, w := range history {
			ev := w.Present[t]
			switch {
			case ev && patPresent[i]:
				both++
			case ev && !patPresent[i]:
				evOnly++
			case !ev && patPresent[i]:
				patOnly++
			default:
				neither++
			}
		}
		pEv := (both + evOnly) / n
		c := Correlation{Type: t, Support: pEv}
		// Phi coefficient from the 2x2 contingency table.
		denom := math.Sqrt((both + evOnly) * (patOnly + neither) * (both + patOnly) * (evOnly + neither))
		if denom > 0 {
			c.Phi = (both*neither - evOnly*patOnly) / denom
		}
		if pEv > 0 && pPat > 0 {
			c.Lift = (both / (both + evOnly)) / pPat
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].Phi) > math.Abs(out[j].Phi)
	})
	return out, nil
}

// SuggestRelevantEvents returns candidate event types whose |Phi| with the
// private pattern meets the threshold — latent relationships the data
// subject may want protected. threshold must lie in (0, 1].
func SuggestRelevantEvents(history []IndicatorWindow, pt PatternType, candidates []event.Type, threshold float64) ([]event.Type, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("core: threshold %v outside (0, 1]", threshold)
	}
	cors, err := EstimateCorrelations(history, pt, candidates)
	if err != nil {
		return nil, err
	}
	var out []event.Type
	for _, c := range cors {
		if math.Abs(c.Phi) >= threshold {
			out = append(out, c.Type)
		}
	}
	return out, nil
}

// ExtendPatternType returns a new pattern type with the suggested latent
// events appended to the original elements, for registration with a PPM.
// The extended type's budget then also covers the correlated events.
func ExtendPatternType(pt PatternType, extra []event.Type) (PatternType, error) {
	if len(extra) == 0 {
		return pt, nil
	}
	elements := append(append([]event.Type{}, pt.Elements...), extra...)
	return NewPatternType(pt.Name+"+latent", elements...)
}
