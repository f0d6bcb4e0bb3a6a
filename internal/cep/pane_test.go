package cep

import (
	"math/rand"
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// randomWindowExpr is randomExpr with an occasional TIMES wrapper, so the
// sliding property test also exercises the assembly fallback path.
func randomWindowExpr(rng *rand.Rand, depth int) Expr {
	e := randomExpr(rng, depth)
	if rng.Intn(4) == 0 {
		e = TimesOf(e, rng.Intn(2)+1, 0)
	}
	return e
}

// TestPropertySlidingEvalMatchesBruteForce drives SlidingEval over random
// pane-sliced streams and asserts every window verdict equals brute-force
// Detect over the window's events — across all three sharing strategies
// (NFA carry-over, merged atom bits, assembly fallback).
func TestPropertySlidingEvalMatchesBruteForce(t *testing.T) {
	types := []event.Type{"a", "b", "c", "d"}
	modes := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		expr := randomWindowExpr(rng, rng.Intn(3))
		slide := event.Timestamp(rng.Intn(4) + 1)
		overlap := rng.Intn(6) + 1
		width := slide * event.Timestamp(overlap)
		q := Query{Name: "q", Pattern: expr, Window: width}
		if q.Validate() != nil {
			continue
		}
		plan := MustCompile(q)
		se, err := plan.Sliding(width, slide)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case se.nfa != nil:
			modes["seq"]++
		case se.bits != nil:
			modes["bits"]++
		default:
			modes["fallback"]++
		}

		// A sorted stream with strictly increasing timestamps (canonical
		// order within panes) and occasional gaps.
		var evs []event.Event
		now := event.Timestamp(rng.Intn(20) - 10)
		for i, n := 0, rng.Intn(120); i < n; i++ {
			now += event.Timestamp(rng.Intn(3) + 1)
			evs = append(evs, event.New(types[rng.Intn(len(types))], now))
		}
		if len(evs) == 0 {
			continue
		}
		// The pane grid need not be slide-aligned: offset it randomly.
		start := stream.AlignDown(evs[0].Time, slide) - event.Timestamp(rng.Intn(int(slide)))
		last := evs[len(evs)-1].Time
		i := 0
		for ps := start; ps <= last; ps += slide {
			pane := stream.Pane{Start: ps, End: ps + slide}
			for i < len(evs) && evs[i].Time < ps+slide {
				pane.Events = append(pane.Events, evs[i])
				i++
			}
			got := se.PushPane(pane)
			// Brute force: the window ending at this pane's end.
			w := stream.Window{Start: ps + slide - width, End: ps + slide}
			for _, e := range evs {
				if e.Time >= w.Start && e.Time < w.End {
					w.Events = append(w.Events, e)
				}
			}
			want, _ := evalWindow(expr, w)
			if got != want {
				t.Fatalf("trial %d expr %s width %d slide %d window [%d,%d): sliding %v, brute force %v",
					trial, expr, width, slide, w.Start, w.End, got, want)
			}
		}
	}
	for _, mode := range []string{"seq", "bits", "fallback"} {
		if modes[mode] == 0 {
			t.Errorf("no trial exercised the %s strategy", mode)
		}
	}
}

// TestPropertyFeedDetectAgreesWithFeed pins the detect-only carry-over feed
// against the witness-producing feed: same completion signal per event, and
// the reported span start is the latest witness start.
func TestPropertyFeedDetectAgreesWithFeed(t *testing.T) {
	types := []event.Type{"a", "b", "c", "x"}
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		n := rng.Intn(3) + 1
		parts := make([]Expr, n)
		for i := range parts {
			parts[i] = E(types[rng.Intn(3)])
		}
		seq := SeqOf(parts...)
		window := event.Timestamp(rng.Intn(20))
		full, err := CompileSeq("q", seq, window)
		if err != nil {
			t.Fatal(err)
		}
		detect, err := CompileSeq("q", seq, window)
		if err != nil {
			t.Fatal(err)
		}
		now := event.Timestamp(0)
		for i := 0; i < 200; i++ {
			now += event.Timestamp(rng.Intn(3) + 1)
			e := event.New(types[rng.Intn(len(types))], now)
			matches := full.Feed(e)
			first, ok := detect.FeedDetect(e)
			if ok != (len(matches) > 0) {
				t.Fatalf("trial %d event %d: FeedDetect ok=%v, Feed found %d matches", trial, i, ok, len(matches))
			}
			if ok {
				want := matches[0].Events[0].Time
				for _, m := range matches {
					if m.Events[0].Time > want {
						want = m.Events[0].Time
					}
				}
				if first != want {
					t.Fatalf("trial %d event %d: FeedDetect first=%d, latest witness start=%d", trial, i, first, want)
				}
			}
		}
	}
}

// TestSlidingEvalSeqCarryOver is the deterministic pane-boundary case: a
// sequence whose elements land in different panes must be detected in every
// window containing the span, without rescans.
func TestSlidingEvalSeqCarryOver(t *testing.T) {
	q := Query{Name: "ab", Pattern: SeqTypes("a", "b"), Window: 8}
	se, err := MustCompile(q).Sliding(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	push := func(start event.Timestamp, evs ...event.Event) bool {
		return se.PushPane(stream.Pane{Start: start, End: start + 2, Events: evs})
	}
	// "a" at t=1 (pane [0,2)), "b" at t=4 (pane [4,6)): span (1,4] is
	// contained in windows [-4,4), [-2,6), [0,8) — i.e. the windows closed
	// by panes ending 4, 6, 8 — and in no window ending later than 8
	// (window [2,10) misses the "a").
	if push(0, event.New("a", 1)) { // window [-6,2): no b yet
		t.Error("window [-6,2) detected")
	}
	if push(2) { // window [-4,4): b not seen yet (arrives in pane [4,6))
		t.Error("window [-4,4) detected: b at t=4 is outside [.,4)")
	}
	if !push(4, event.New("b", 4)) { // window [-2,6): contains a@1, b@4
		t.Error("window [-2,6) missed the carry-over match")
	}
	if !push(6) { // window [0,8)
		t.Error("window [0,8) missed the match")
	}
	if push(8) { // window [2,10): a@1 fell out
		t.Error("window [2,10) detected a match it does not contain")
	}
}

// TestSlidingEvalUnalignedPaneGrid pins seq-mode marking on a pane grid
// whose boundaries are not multiples of the slide: window ends are defined
// by the pushed panes, and a match must mark every grid window containing
// its span (regression: the marking arithmetic once assumed slide-aligned
// boundaries and dropped such detections).
func TestSlidingEvalUnalignedPaneGrid(t *testing.T) {
	q := Query{Name: "ab", Pattern: SeqTypes("a", "b"), Window: 4}
	se, err := MustCompile(q).Sliding(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Panes [1,3), [3,5), [5,7): windows end at 3, 5, 7. The match a@1,b@2
	// spans (1,2] and is contained in windows [-1,3) and [1,5), but not in
	// [3,7).
	if !se.PushPane(stream.Pane{Start: 1, End: 3, Events: []event.Event{event.New("a", 1), event.New("b", 2)}}) {
		t.Error("window [-1,3) missed the match a@1,b@2")
	}
	if !se.PushPane(stream.Pane{Start: 3, End: 5}) {
		t.Error("window [1,5) missed the match a@1,b@2 on an unaligned pane grid")
	}
	if se.PushPane(stream.Pane{Start: 5, End: 7}) {
		t.Error("window [3,7) detected a match it does not contain")
	}
}

// TestSlidingEvalReset asserts Reset clears carried state for a fresh feed.
func TestSlidingEvalReset(t *testing.T) {
	q := Query{Name: "ab", Pattern: SeqTypes("a", "b"), Window: 4}
	se, err := MustCompile(q).Sliding(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	se.PushPane(stream.Pane{Start: 0, End: 2, Events: []event.Event{event.New("a", 1)}})
	se.Reset()
	// After reset, the old "a" must not pair with a fresh "b".
	if se.PushPane(stream.Pane{Start: 0, End: 2, Events: []event.Event{event.New("b", 1)}}) {
		t.Error("match detected across Reset")
	}
}
