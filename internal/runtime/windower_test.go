package runtime

import (
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// detach copies closed windows out of the windower's recycled tally buffers,
// which the PushInto contract reclaims on the next Push/Flush.
func detach(dst, ws []stream.Window) []stream.Window {
	for _, win := range ws {
		dst = append(dst, stream.Window{Start: win.Start, End: win.End,
			Events: win.Events, TypeCounts: win.TypeCounts.Clone()})
	}
	return dst
}

func pushAll(t *testing.T, w *Windower, evs ...event.Event) []stream.Window {
	t.Helper()
	var out []stream.Window
	for _, e := range evs {
		ws, _ := w.Push(e)
		out = detach(out, ws)
	}
	return out
}

// checkTally asserts a closed window carries its interval and tally only, and
// that the tally agrees with a scan of the accepted events over the interval:
// per type, in total (no stray types), and as nil for an empty window.
func checkTally(t *testing.T, win stream.Window, accepted []event.Event) {
	t.Helper()
	if win.Events != nil {
		t.Errorf("window [%d,%d) carries events %v", win.Start, win.End, win.Events)
	}
	total := 0
	for _, e := range accepted {
		if e.Time >= win.Start && e.Time < win.End {
			total++
			if got, want := win.Count(e.Type), countIn(accepted, e.Type, win.Start, win.End); got != want {
				t.Errorf("window [%d,%d): Count(%s) = %d, scan %d", win.Start, win.End, e.Type, got, want)
			}
		}
	}
	sum := 0
	for _, c := range win.TypeCounts {
		sum += c.N
	}
	if sum != total {
		t.Errorf("window [%d,%d): TypeCounts %v hold %d events, scan %d", win.Start, win.End, win.TypeCounts, sum, total)
	}
	if total == 0 && win.TypeCounts != nil {
		t.Errorf("window [%d,%d): empty window carries TypeCounts %v", win.Start, win.End, win.TypeCounts)
	}
}

func TestWindowerMatchesWindowSlice(t *testing.T) {
	// On an in-order feed the incremental windower must agree exactly with
	// the batch WindowSlice cut (including empty gap windows), tallying
	// what WindowSlice's windows hold.
	evs := []event.Event{
		event.New("a", 1), event.New("b", 3), event.New("a", 12),
		event.New("c", 37), event.New("a", 41),
	}
	w := NewWindower(10, DropLate, 0, 0)
	got := pushAll(t, w, evs...)
	got = detach(got, w.Flush())
	want := stream.WindowSlice(evs, 10)
	if len(got) != len(want) {
		t.Fatalf("windows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Errorf("window %d = [%d,%d), want [%d,%d)", i, got[i].Start, got[i].End, want[i].Start, want[i].End)
		}
		for _, typ := range []event.Type{"a", "b", "c"} {
			if got[i].Count(typ) != want[i].Count(typ) {
				t.Errorf("window %d: Count(%s) = %d, want %d", i, typ, got[i].Count(typ), want[i].Count(typ))
			}
		}
		checkTally(t, got[i], evs)
	}
}

func TestWindowerDropLate(t *testing.T) {
	w := NewWindower(10, DropLate, 0, 0)
	// Event at 12 closes [0,10); the straggler at 5 must be dropped.
	accepted := []event.Event{event.New("a", 1), event.New("b", 12)}
	closed := pushAll(t, w, accepted...)
	ws, res := w.Push(event.New("late", 5))
	if res != PushLate || len(ws) != 0 {
		t.Errorf("late push = (%v, %v), want PushLate", ws, res)
	}
	if w.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", w.Dropped())
	}
	// Disorder within the open window is tolerated.
	if _, res := w.Push(event.New("c", 11)); res != PushAccepted {
		t.Error("in-window disorder rejected")
	}
	accepted = append(accepted, event.New("c", 11))
	out := detach(nil, w.Flush())
	if len(closed) != 1 || len(out) != 1 || out[0].Start != 10 {
		t.Fatalf("closed %+v then flushed %+v, want [0,10) then [10,20)", closed, out)
	}
	checkTally(t, closed[0], accepted)
	checkTally(t, out[0], accepted)
	if out[0].Count("late") != 0 || out[0].Count("b") != 1 || out[0].Count("c") != 1 {
		t.Errorf("flushed window tally = %v, want b=1 c=1", out[0].TypeCounts)
	}
}

func TestWindowerReorderBuffer(t *testing.T) {
	w := NewWindower(10, ReorderBuffer, 5, 0)
	// With lateness 5 the watermark trails maxTime by 5: the event at 12
	// must NOT close [0,10) yet, so the straggler at 8 is counted in.
	if ws := pushAll(t, w, event.New("a", 1), event.New("b", 12)); len(ws) != 0 {
		t.Fatalf("window closed before watermark passed: %+v", ws)
	}
	ws, res := w.Push(event.New("c", 8))
	if res != PushAccepted || len(ws) != 0 {
		t.Fatalf("straggler within lateness rejected (res=%v ws=%v)", res, ws)
	}
	// Watermark 15-5=10 closes [0,10) holding a and the straggler c.
	closed, _ := w.Push(event.New("d", 15))
	if len(closed) != 1 || closed[0].Start != 0 || closed[0].End != 10 {
		t.Fatalf("closed = %+v, want one window [0,10)", closed)
	}
	accepted := []event.Event{event.New("a", 1), event.New("b", 12), event.New("c", 8), event.New("d", 15)}
	checkTally(t, closed[0], accepted)
	if closed[0].Count("a") != 1 || closed[0].Count("c") != 1 || closed[0].Count("b") != 0 {
		t.Errorf("window tally = %v, want a=1 c=1", closed[0].TypeCounts)
	}
	// An event older than the watermark is still dropped.
	if _, res := w.Push(event.New("e", 3)); res != PushLate {
		t.Error("event older than watermark accepted")
	}
}

func TestWindowerBoundaryEvent(t *testing.T) {
	// An event exactly on a window boundary belongs to the later window
	// (intervals are half-open) and closes the earlier one.
	w := NewWindower(10, DropLate, 0, 0)
	accepted := []event.Event{event.New("a", 0), event.New("b", 10)}
	pushAll(t, w, accepted[0])
	closed, _ := w.Push(accepted[1])
	if len(closed) != 1 || closed[0].End != 10 || closed[0].Count("a") != 1 || closed[0].Count("b") != 0 {
		t.Fatalf("boundary close = %+v", closed)
	}
	checkTally(t, closed[0], accepted)
	out := w.Flush()
	if len(out) != 1 || out[0].Start != 10 || out[0].Count("b") != 1 || out[0].Count("a") != 0 {
		t.Fatalf("boundary event landed in %+v, want [10,20)", out)
	}
	checkTally(t, out[0], accepted)
}

func TestWindowerNegativeTimestamps(t *testing.T) {
	w := NewWindower(10, DropLate, 0, 0)
	closed := pushAll(t, w, event.New("a", -15), event.New("b", -2))
	if len(closed) != 1 || closed[0].Start != -20 || closed[0].End != -10 {
		t.Fatalf("negative-time window = %+v, want [-20,-10)", closed)
	}
}

func TestWindowerFlushResets(t *testing.T) {
	w := NewWindower(10, DropLate, 0, 0)
	w.Push(event.New("a", 5))
	if out := w.Flush(); len(out) != 1 {
		t.Fatalf("flush = %+v", out)
	}
	if out := w.Flush(); out != nil {
		t.Errorf("second flush = %+v, want nil", out)
	}
	// A fresh feed can restart at an earlier time without being "late".
	if _, res := w.Push(event.New("b", 2)); res != PushAccepted {
		t.Error("restart after flush rejected")
	}
}

func TestWindowerHorizon(t *testing.T) {
	w := NewWindower(10, DropLate, 0, 100)
	pushAll(t, w, event.New("a", 5))
	// A runaway timestamp beyond the horizon is rejected outright...
	ws, res := w.Push(event.New("runaway", 1_000_000))
	if res != PushFuture || len(ws) != 0 {
		t.Fatalf("runaway push = (%v, %v), want PushFuture", ws, res)
	}
	if w.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", w.Dropped())
	}
	// ...and must not poison the watermark: on-time events still serve.
	if _, res := w.Push(event.New("b", 8)); res != PushAccepted {
		t.Error("on-time event rejected after runaway")
	}
	// A jump within the horizon still closes (bounded) gap windows.
	closed, res := w.Push(event.New("c", 95))
	if res != PushAccepted || len(closed) != 9 {
		t.Fatalf("in-horizon jump = %d windows (res=%v), want 9", len(closed), res)
	}
}

// TestWindowerTypeCounts pins the carried tally: every cut window's
// TypeCounts must agree exactly with a scan of the pushed events over its
// interval, across disorder, gap windows, and flush.
func TestWindowerTypeCounts(t *testing.T) {
	w := NewWindower(10, ReorderBuffer, 3, 0)
	var closed []stream.Window
	var accepted []event.Event
	push := func(typ event.Type, ts event.Timestamp) {
		e := event.New(typ, ts)
		ws, res := w.Push(e)
		if res != PushAccepted {
			t.Fatalf("push %s@%d: %v", typ, ts, res)
		}
		accepted = append(accepted, e)
		closed = detach(closed, ws)
	}
	push("a", 1)
	push("b", 4)
	push("a", 3) // disorder within the open window
	push("a", 12)
	push("b", 45) // forces gap windows
	closed = detach(closed, w.Flush())
	if len(closed) != 5 {
		t.Fatalf("%d windows closed, want 5", len(closed))
	}
	empty := 0
	for _, win := range closed {
		checkTally(t, win, accepted)
		if win.TypeCounts == nil {
			empty++
		}
		// The window's queries must agree with a scan.
		for _, typ := range []event.Type{"a", "b", "zzz"} {
			scan := countIn(accepted, typ, win.Start, win.End)
			if win.Count(typ) != scan || win.Contains(typ) != (scan > 0) {
				t.Errorf("window [%d,%d): Count(%s)=%d Contains=%t, scan=%d", win.Start, win.End, typ, win.Count(typ), win.Contains(typ), scan)
			}
		}
	}
	if empty != 2 {
		t.Errorf("%d empty gap windows, want 2 ([20,30) and [30,40))", empty)
	}
}

// TestWindowerPushIntoReusesBuffer pins the scratch contract: the closed-
// window buffer and the tallies are reused across pushes, yet every window a
// call returns — several in one call, too — carries its own correct tally,
// never a recycled buffer of an earlier call or an alias of a sibling.
func TestWindowerPushIntoReusesBuffer(t *testing.T) {
	w := NewWindower(10, ReorderBuffer, 30, 0)
	var accepted []event.Event
	var ws []stream.Window
	push := func(typ event.Type, at event.Timestamp) []stream.Window {
		e := event.New(typ, at)
		accepted = append(accepted, e)
		ws, _ = w.PushInto(e, ws[:0])
		return ws
	}
	for _, e := range []struct {
		typ event.Type
		at  event.Timestamp
	}{{"a", 5}, {"b", 15}, {"c", 25}, {"c", 27}} {
		if got := push(e.typ, e.at); len(got) != 0 {
			t.Fatalf("push %s@%d closed %d windows before the watermark", e.typ, e.at, len(got))
		}
	}
	// Watermark 65-30 = 35 closes [0,10), [10,20) and [20,30) in one call.
	got := push("d", 65)
	if len(got) != 3 {
		t.Fatalf("jump closed %d windows, want 3", len(got))
	}
	for _, win := range got {
		checkTally(t, win, accepted)
	}
	// The next call recycles those tallies; its own windows stay correct.
	got = push("e", 85)
	if len(got) != 2 || got[0].Start != 30 || got[1].Start != 40 {
		t.Fatalf("second jump closed %+v, want [30,40) and [40,50)", got)
	}
	for _, win := range got {
		checkTally(t, win, accepted)
	}
}
