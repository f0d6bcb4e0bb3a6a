package cep

import (
	"fmt"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// Times matches when its inner expression occurs at least Min and at most
// Max times within the window (Kleene-style repetition). Max = 0 means
// unbounded. Occurrences are counted as disjoint matches in temporal order.
//
// A matching TIMES consumes every occurrence it counted, not just the first
// Min: its witness holds all of them, so under SEQ the next part must start
// after the last occurrence. SEQ(TIMES(a, 1), c) therefore needs a c after
// the window's last a, not merely after some a.
//
// Over perturbed indicators, repetition counts are not observable — only
// existence is released — so EvalIndicators treats Times with Min ≤ 1 as
// presence of the inner expression and Times with Min > 1 conservatively as
// not detected (a released existence bit cannot witness two occurrences).
type Times struct {
	// Inner is the repeated expression.
	Inner Expr
	// Min is the minimum number of occurrences (≥ 1).
	Min int
	// Max is the maximum number of occurrences; 0 means unbounded.
	Max int
}

// TimesOf builds a repetition expression.
func TimesOf(inner Expr, min, max int) *Times {
	return &Times{Inner: inner, Min: min, Max: max}
}

// Types implements Expr.
func (t *Times) Types() []event.Type {
	if t.Inner == nil {
		return nil
	}
	return t.Inner.Types()
}

// String implements Expr. The rendering is valid parser input: TIMES with
// one bound means "at least Min", with two bounds "between Min and Max".
func (t *Times) String() string {
	inner := "<nil>"
	if t.Inner != nil {
		inner = t.Inner.String()
	}
	if t.Max == 0 {
		return fmt.Sprintf("TIMES(%s, %d)", inner, t.Min)
	}
	return fmt.Sprintf("TIMES(%s, %d, %d)", inner, t.Min, t.Max)
}

func (t *Times) validate() error {
	if t.Inner == nil {
		return fmt.Errorf("cep: TIMES with nil inner expression")
	}
	if t.Min < 1 {
		return fmt.Errorf("cep: TIMES minimum %d must be >= 1", t.Min)
	}
	if t.Max != 0 && t.Max < t.Min {
		return fmt.Errorf("cep: TIMES maximum %d below minimum %d", t.Max, t.Min)
	}
	return t.Inner.validate()
}

// countOccurrences counts disjoint matches of the expression in temporal
// order: after each match, counting resumes strictly after the match's last
// event.
func countOccurrences(e Expr, w stream.Window) (int, []event.Event) {
	count := 0
	var witness []event.Event
	after := event.Timestamp(-1 << 62)
	for {
		ok, evs := evalWindow(e, eventsAfter(w, after))
		if !ok {
			return count, witness
		}
		count++
		witness = append(witness, evs...)
		end := witnessEnd(evs, after)
		if end == after {
			// Zero-width witness (e.g. NEG): avoid an infinite loop.
			return count, witness
		}
		after = end
	}
}
