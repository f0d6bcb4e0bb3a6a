package cep

import (
	"fmt"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// evalWindow is the concrete-window walker behind Plan.EvalWindow and
// Plan.DetectWindow: it reports whether the pattern occurs in the window's
// events, plus one witness instance (the constituent events) when it does.
// For Neg the witness is empty.
//
// Semantics:
//   - Atom: at least one event in the window matches type and predicate.
//   - Seq:  the parts match strictly increasing timestamps.
//   - And:  every part matches somewhere in the window.
//   - Or:   at least one part matches; the witness is the first matching
//     part's.
//   - Neg:  the inner expression does not match.
//   - Times: see Times.
func evalWindow(e Expr, w stream.Window) (bool, []event.Event) {
	switch x := e.(type) {
	case *Atom:
		for _, ev := range w.Events {
			if x.Matches(ev) {
				return true, []event.Event{ev}
			}
		}
		return false, nil
	case *Seq:
		return evalSeq(x.Parts, w, -1<<62)
	case *And:
		// Each part contributes at least one witness event; pre-sizing
		// from the part count avoids the append-growth reallocations of
		// building the witness incrementally.
		witness := make([]event.Event, 0, len(x.Parts))
		for _, p := range x.Parts {
			ok, evs := evalWindow(p, w)
			if !ok {
				return false, nil
			}
			witness = append(witness, evs...)
		}
		return true, witness
	case *Or:
		for _, p := range x.Parts {
			if ok, evs := evalWindow(p, w); ok {
				return true, evs
			}
		}
		return false, nil
	case *Neg:
		ok, _ := evalWindow(x.Inner, w)
		return !ok, nil
	case *Times:
		n, witness := countOccurrences(x.Inner, w)
		if n < x.Min || (x.Max != 0 && n > x.Max) {
			return false, nil
		}
		return true, witness
	default:
		panic(fmt.Sprintf("cep: unknown expression node %T", e))
	}
}

// evalSeq matches parts in order with each part's witness strictly after the
// previous part's witness end time. after is the exclusive lower bound for
// the next match's start.
func evalSeq(parts []Expr, w stream.Window, after event.Timestamp) (bool, []event.Event) {
	if len(parts) == 0 {
		return true, nil
	}
	head, rest := parts[0], parts[1:]
	// Try every feasible witness of the head part, earliest first, and
	// recurse. Earliest-first keeps the search linear in common cases.
	switch x := head.(type) {
	case *Atom:
		for _, ev := range w.Events {
			if ev.Time <= after || !x.Matches(ev) {
				continue
			}
			ok, tail := evalSeq(rest, w, ev.Time)
			if ok {
				return true, append([]event.Event{ev}, tail...)
			}
		}
		return false, nil
	case *Or:
		// Each alternative is a sequence head of its own: committing to
		// the first part that matches would miss a later part whose
		// witness lets the rest of the sequence complete.
		for _, p := range x.Parts {
			if ok, evs := evalSeq(append([]Expr{p}, rest...), w, after); ok {
				return true, evs
			}
		}
		return false, nil
	default:
		// Other composite heads: evaluate against the sub-window after
		// `after`; the head's witness end becomes the new bound.
		ok, evs := evalWindow(head, eventsAfter(w, after))
		if !ok {
			return false, nil
		}
		ok, tail := evalSeq(rest, w, witnessEnd(evs, after))
		if !ok {
			return false, nil
		}
		return true, append(evs, tail...)
	}
}

// eventsAfter returns the window restricted to events strictly after t.
func eventsAfter(w stream.Window, t event.Timestamp) stream.Window {
	sub := stream.Window{Start: w.Start, End: w.End}
	for _, ev := range w.Events {
		if ev.Time > t {
			sub.Events = append(sub.Events, ev)
		}
	}
	return sub
}

// witnessEnd returns the latest timestamp among the witness events, or from
// when the witness is empty or entirely earlier.
func witnessEnd(evs []event.Event, from event.Timestamp) event.Timestamp {
	end := from
	for _, ev := range evs {
		if ev.Time > end {
			end = ev.Time
		}
	}
	return end
}

// EvalIndicators evaluates the expression against per-type presence
// indicators instead of concrete events. This is the query path used after a
// randomized-response PPM has perturbed the existence bits I(e_i): temporal
// order inside the window is no longer observable, so Seq degrades to "all
// types present" — exactly the binary-answer query class the paper assumes
// (a pattern is detected iff all its elements are detected in the window).
//
// Predicates cannot be applied to an indicator; atoms with predicates are
// treated by type only.
//
// EvalIndicators is the reference interpreter: serving and quality code
// answers through Plan.EvalIndicators, and tests check the compiled plan
// against this function.
func EvalIndicators(e Expr, present map[event.Type]bool) bool {
	switch x := e.(type) {
	case *Atom:
		return present[x.Type]
	case *Seq:
		for _, p := range x.Parts {
			if !EvalIndicators(p, present) {
				return false
			}
		}
		return true
	case *And:
		for _, p := range x.Parts {
			if !EvalIndicators(p, present) {
				return false
			}
		}
		return true
	case *Or:
		for _, p := range x.Parts {
			if EvalIndicators(p, present) {
				return true
			}
		}
		return false
	case *Neg:
		return !EvalIndicators(x.Inner, present)
	case *Times:
		// A released existence bit can witness one occurrence at most.
		if x.Min > 1 {
			return false
		}
		return EvalIndicators(x.Inner, present)
	default:
		panic(fmt.Sprintf("cep: unknown expression node %T", e))
	}
}
