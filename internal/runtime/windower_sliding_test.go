package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// countIn is the brute-force tally: occurrences of typ among evs that fall in
// [start, end).
func countIn(evs []event.Event, typ event.Type, start, end event.Timestamp) int {
	n := 0
	for _, e := range evs {
		if e.Type == typ && e.Time >= start && e.Time < end {
			n++
		}
	}
	return n
}

// TestSlidingWindowerMatchesBruteForce is the pane-assembly property test:
// for randomized widths, slides, lateness policies, and event feeds, every
// window the pane windower emits must tally exactly like a brute-force scan
// of the accepted events over the window's interval, and the emitted
// intervals must advance by the slide from the earliest window covering the
// first accepted event to the window starting at the newest event's pane.
func TestSlidingWindowerMatchesBruteForce(t *testing.T) {
	types := []event.Type{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		slide := event.Timestamp(rng.Intn(5) + 1)
		overlap := rng.Intn(7) + 2
		width := slide * event.Timestamp(overlap)
		policy, lateness := DropLate, event.Timestamp(0)
		if rng.Intn(2) == 1 {
			policy = ReorderBuffer
			lateness = event.Timestamp(rng.Intn(3 * int(width)))
		}
		w := NewSlidingWindower(width, slide, policy, lateness, 0)

		n := rng.Intn(200) + 20
		now := event.Timestamp(rng.Intn(50) - 25)
		var accepted []event.Event
		var got []stream.Window
		var scratch []stream.Window
		for i := 0; i < n; i++ {
			now += event.Timestamp(rng.Intn(4))
			jitter := event.Timestamp(rng.Intn(2 * int(width)))
			e := event.New(types[rng.Intn(len(types))], now-jitter)
			var res PushResult
			scratch, res = w.PushInto(e, scratch[:0])
			if res == PushAccepted {
				accepted = append(accepted, e)
			}
			for _, win := range scratch {
				got = append(got, stream.Window{Start: win.Start, End: win.End,
					TypeCounts: append(stream.TypeCounts(nil), win.TypeCounts...)})
			}
		}
		got = append(got, w.FlushInto(nil)...)
		if len(accepted) == 0 {
			if len(got) != 0 {
				t.Fatalf("trial %d: %d windows from zero accepted events", trial, len(got))
			}
			continue
		}
		first, last := accepted[0].Time, accepted[0].Time
		for _, e := range accepted {
			if e.Time > last {
				last = e.Time
			}
		}
		wantStart := stream.AlignDown(first-width+slide, slide)
		wantLast := stream.AlignDown(last, slide)
		wantN := int((wantLast-wantStart)/slide) + 1
		if len(got) != wantN {
			t.Fatalf("trial %d (width %d slide %d %v/%d): %d windows, want %d",
				trial, width, slide, policy, lateness, len(got), wantN)
		}
		for i, win := range got {
			ws := wantStart + event.Timestamp(i)*slide
			if win.Start != ws || win.End != ws+width {
				t.Fatalf("trial %d window %d: [%d,%d), want [%d,%d)",
					trial, i, win.Start, win.End, ws, ws+width)
			}
			if win.Events != nil {
				t.Fatalf("trial %d window %d: pane windows must not carry events", trial, i)
			}
			for _, typ := range types {
				if gotC, wantC := win.Count(typ), countIn(accepted, typ, win.Start, win.End); gotC != wantC {
					t.Fatalf("trial %d window [%d,%d) type %q: count %d, want %d",
						trial, win.Start, win.End, typ, gotC, wantC)
				}
			}
		}
	}
}

// naiveWindower is the brute-force reference for the pane path: every event
// is re-buffered into each of the width/slide windows covering it, and each
// window is emitted with its own sorted event copy and no tally. It drops
// events behind the earliest open window and assumes in-order input.
type naiveWindower struct {
	width, slide event.Timestamp
	started      bool
	nextStart    event.Timestamp // start of the next window to open
	open         []naiveWindow   // still-open windows, ordered by start
}

type naiveWindow struct {
	start, end event.Timestamp
	events     []event.Event
}

// Push opens every window whose interval has begun, buffers the event into
// each open window covering it, and emits the windows the event closed.
func (w *naiveWindower) Push(e event.Event) ([]stream.Window, PushResult) {
	if !w.started {
		w.started = true
		w.nextStart = stream.AlignDown(e.Time-w.width+w.slide, w.slide)
	}
	if len(w.open) > 0 && e.Time < w.open[0].start || len(w.open) == 0 && e.Time < w.nextStart {
		return nil, PushLate
	}
	for w.nextStart <= e.Time {
		w.open = append(w.open, naiveWindow{start: w.nextStart, end: w.nextStart + w.width})
		w.nextStart += w.slide
	}
	var closed []stream.Window
	for i := range w.open {
		if e.Time >= w.open[i].start && e.Time < w.open[i].end {
			w.open[i].events = append(w.open[i].events, e)
		}
	}
	for len(w.open) > 0 && w.open[0].end <= e.Time {
		closed = append(closed, w.open[0].window())
		w.open = w.open[1:]
	}
	return closed, PushAccepted
}

// FlushInto emits every still-open window into dst and resets.
func (w *naiveWindower) FlushInto(dst []stream.Window) []stream.Window {
	for _, nw := range w.open {
		dst = append(dst, nw.window())
	}
	w.open = nil
	w.started = false
	return dst
}

func (nw naiveWindow) window() stream.Window {
	event.SortEvents(nw.events)
	return stream.Window{Start: nw.start, End: nw.end, Events: nw.events}
}

// TestSlidingWindowerMatchesNaive pins the pane path against the naive
// re-buffering reference on in-order input: identical window intervals and
// per-type counts (the naive windows additionally carry their events).
func TestSlidingWindowerMatchesNaive(t *testing.T) {
	types := []event.Type{"x", "y", "z"}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		slide := event.Timestamp(rng.Intn(4) + 1)
		width := slide * event.Timestamp(rng.Intn(6)+2)
		pane := NewSlidingWindower(width, slide, DropLate, 0, 0)
		naive := &naiveWindower{width: width, slide: slide}

		now := event.Timestamp(0)
		var gotPane, gotNaive []stream.Window
		for i := 0; i < 150; i++ {
			now += event.Timestamp(rng.Intn(3))
			e := event.New(types[rng.Intn(len(types))], now)
			ws, res := pane.Push(e)
			for _, win := range ws {
				gotPane = append(gotPane, stream.Window{Start: win.Start, End: win.End,
					TypeCounts: append(stream.TypeCounts(nil), win.TypeCounts...)})
			}
			nws, nres := naive.Push(e)
			gotNaive = append(gotNaive, nws...)
			if res != nres {
				t.Fatalf("trial %d event %d: pane result %v, naive %v", trial, i, res, nres)
			}
		}
		gotPane = append(gotPane, pane.FlushInto(nil)...)
		gotNaive = naive.FlushInto(gotNaive)
		if len(gotPane) != len(gotNaive) {
			t.Fatalf("trial %d: pane %d windows, naive %d", trial, len(gotPane), len(gotNaive))
		}
		for i := range gotPane {
			p, nv := gotPane[i], gotNaive[i]
			if p.Start != nv.Start || p.End != nv.End {
				t.Fatalf("trial %d window %d: pane [%d,%d), naive [%d,%d)",
					trial, i, p.Start, p.End, nv.Start, nv.End)
			}
			for _, typ := range types {
				if p.Count(typ) != nv.Count(typ) {
					t.Fatalf("trial %d window %d type %q: pane %d, naive %d",
						trial, i, typ, p.Count(typ), nv.Count(typ))
				}
			}
		}
		if pane.Panes() == 0 {
			t.Fatalf("trial %d: pane windower cut no panes", trial)
		}
	}
}

// TestSlidingWindowerSlideEqualsWidthIsTumbling asserts the degenerate slide
// configuration reproduces the tumbling windower bit-for-bit: same windows,
// same events, same tallies.
func TestSlidingWindowerSlideEqualsWidthIsTumbling(t *testing.T) {
	tumble := NewWindower(10, DropLate, 0, 0)
	slide := NewSlidingWindower(10, 10, DropLate, 0, 0)
	rng := rand.New(rand.NewSource(5))
	now := event.Timestamp(0)
	for i := 0; i < 100; i++ {
		now += event.Timestamp(rng.Intn(4))
		e := event.New(event.Type(fmt.Sprintf("t%d", rng.Intn(3))), now)
		a, ra := tumble.Push(e)
		b, rb := slide.Push(e)
		if ra != rb {
			t.Fatalf("event %d: results differ: %v vs %v", i, ra, rb)
		}
		if len(a) != len(b) {
			t.Fatalf("event %d: %d vs %d windows", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Start != b[j].Start || a[j].End != b[j].End ||
				len(a[j].Events) != len(b[j].Events) || len(a[j].TypeCounts) != len(b[j].TypeCounts) {
				t.Fatalf("event %d window %d: %+v vs %+v", i, j, a[j], b[j])
			}
			for k := range a[j].Events {
				if a[j].Events[k].Type != b[j].Events[k].Type || a[j].Events[k].Time != b[j].Events[k].Time {
					t.Fatalf("event %d window %d event %d differs", i, j, k)
				}
			}
		}
	}
	a, b := tumble.Flush(), slide.Flush()
	if len(a) != len(b) {
		t.Fatalf("flush: %d vs %d windows", len(a), len(b))
	}
}

// TestSlidingWindowerRecyclesTallies pins the ownership contract: a
// pane-assembled window's TypeCounts is windower-owned scratch, reused after
// the next push — and the reuse must not corrupt the tallies handed out for
// the windows of the current push.
func TestSlidingWindowerRecyclesTallies(t *testing.T) {
	w := NewSlidingWindower(4, 2, DropLate, 0, 0)
	var emitted []stream.Window
	push := func(typ event.Type, at event.Timestamp) []stream.Window {
		ws, _ := w.Push(event.New(typ, at))
		return ws
	}
	push("a", 0)
	push("a", 1)
	emitted = append(emitted[:0], push("b", 2)...) // closes pane [0,2): window [-2,2)
	if len(emitted) != 1 || emitted[0].Count("a") != 2 {
		t.Fatalf("first window: %+v", emitted)
	}
	saved := emitted[0].TypeCounts
	got := push("c", 4) // closes pane [2,4): window [0,4) — may reuse saved's buffer
	if len(got) != 1 || got[0].Count("a") != 2 || got[0].Count("b") != 1 {
		t.Fatalf("second window: %+v", got)
	}
	// The retained tally from the previous push is now windower-owned again;
	// the test only asserts the documented lifetime, not its content.
	_ = saved
	w.Flush()
}

// TestSlidingWindowerFlushEmitsTrailingWindows asserts Flush emits the
// partially-covered trailing windows, through the one starting at the newest
// event's pane.
func TestSlidingWindowerFlushEmitsTrailingWindows(t *testing.T) {
	w := NewSlidingWindower(6, 2, DropLate, 0, 0)
	ws, _ := w.Push(event.New("a", 0))
	copyWindows := func(in []stream.Window) []stream.Window {
		var out []stream.Window
		for _, win := range in {
			out = append(out, stream.Window{Start: win.Start, End: win.End,
				TypeCounts: append(stream.TypeCounts(nil), win.TypeCounts...)})
		}
		return out
	}
	got := copyWindows(ws)
	ws, _ = w.Push(event.New("b", 3))
	got = append(got, copyWindows(ws)...)
	ws = append(got, copyWindows(w.Flush())...)
	// Accepted events span [0,3]: windows start at AlignDown(0-6+2,2) = -4
	// through AlignDown(3,2) = 2 → starts -4,-2,0,2.
	wantStarts := []event.Timestamp{-4, -2, 0, 2}
	if len(ws) != len(wantStarts) {
		t.Fatalf("%d windows, want %d: %+v", len(ws), len(wantStarts), ws)
	}
	for i, win := range ws {
		if win.Start != wantStarts[i] || win.End != wantStarts[i]+6 {
			t.Errorf("window %d: [%d,%d), want [%d,%d)", i, win.Start, win.End, wantStarts[i], wantStarts[i]+6)
		}
	}
	// Window [0,6) holds both events; window [2,8) only "b".
	if ws[2].Count("a") != 1 || ws[2].Count("b") != 1 {
		t.Errorf("window [0,6): a=%d b=%d, want 1/1", ws[2].Count("a"), ws[2].Count("b"))
	}
	if ws[3].Count("a") != 0 || ws[3].Count("b") != 1 {
		t.Errorf("window [2,8): a=%d b=%d, want 0/1", ws[3].Count("a"), ws[3].Count("b"))
	}
	// Flush resets: a fresh feed starts over.
	ws, res := w.Push(event.New("a", 100))
	if res != PushAccepted || len(ws) != 0 {
		t.Fatalf("post-flush push: %v, %d windows", res, len(ws))
	}
}
