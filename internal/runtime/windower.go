// Package runtime is the sharded streaming serving layer on top of the batch
// PrivateEngine: a Runtime owns N shards, each wrapping its own engine and
// mechanism with independently seeded randomness, and serves an unbounded
// multi-stream event feed continuously instead of a pre-materialized slice.
//
// Events are routed to shards by stream key (a pluggable Sharder; hash of
// Event.Source by default), so each stream is served by exactly one shard and
// its answers are delivered in window order. Within a shard, an incremental
// Windower cuts tumbling windows per stream as the watermark advances,
// honoring a configurable lateness policy. Closed windows flow through the
// shard's PrivateEngine and the released answers are published on an answer
// bus that data consumers subscribe to per query. Ingest channels are bounded
// with explicit backpressure (block or drop-oldest), Close drains every shard
// gracefully, and Snapshot exposes per-shard serving counters.
package runtime

import (
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// LatenessPolicy selects how a Windower treats out-of-order events.
type LatenessPolicy int

const (
	// DropLate closes each window as soon as an event at or past its end
	// arrives; events older than every open window are discarded and
	// counted. Disorder within a still-open window is tolerated (events
	// are sorted when the window is cut).
	DropLate LatenessPolicy = iota
	// ReorderBuffer holds the watermark AllowedLateness behind the highest
	// observed timestamp, keeping windows open long enough for events up
	// to that much out of order to be sorted into place. Events older than
	// the watermark are still discarded and counted.
	ReorderBuffer
)

// String names the policy for logs and flags.
func (p LatenessPolicy) String() string {
	switch p {
	case DropLate:
		return "drop"
	case ReorderBuffer:
		return "reorder"
	default:
		return "unknown"
	}
}

// PushResult reports what a Windower did with a pushed event.
type PushResult int

const (
	// PushAccepted means the event was assigned to an open window.
	PushAccepted PushResult = iota
	// PushLate means the event was older than every open window and was
	// discarded under the lateness policy.
	PushLate
	// PushFuture means the event jumped further than the horizon past the
	// stream's newest event and was discarded.
	PushFuture
)

// Windower incrementally cuts one stream's unbounded event feed into
// tumbling or sliding windows. It is the streaming counterpart of
// stream.Tumbling / stream.Sliding for feeds that are not materialized as a
// channel or slice: Push one event at a time and receive the windows it
// closes; Flush the trailing windows when the feed ends. Like the channel
// windowers it emits empty windows for gaps, so window indices stay aligned
// with time — the empty windows are released too, since skipping them would
// leak which windows were empty.
//
// Sliding windows (slide < width) are served by stream slicing: the windower
// cuts the stream into non-overlapping panes of the slide width, tallies each
// pane's type occurrences once, and assembles every emitted window from a
// ring of pane tallies — merge on pane entry, unmerge on pane exit — so the
// per-window cost is O(distinct types), not O(events x overlap). Pane-mode
// windows carry no Events (their tally is the serving representation; see
// the PushInto contract) and their TypeCounts buffers are recycled on the
// next Push/Flush call.
//
// A Windower is not safe for concurrent use; in the Runtime each stream's
// windower is owned by a single shard goroutine.
type Windower struct {
	width    event.Timestamp
	slide    event.Timestamp // == width for tumbling windows
	overlap  int             // width / slide
	policy   LatenessPolicy
	lateness event.Timestamp
	horizon  event.Timestamp

	started   bool
	nextStart event.Timestamp // start of the earliest still-open window (pane-mode: pane)
	maxTime   event.Timestamp // highest event timestamp seen
	pending   []event.Event   // events of still-open windows/panes, unordered
	// slotCounts tracks each open window's (pane-mode: pane's) population:
	// slotCounts[i] is the number of pending events in the slot starting at
	// nextStart + i*slide. Cut windows pre-size their event slice from it
	// and fill a per-type occurrence map (carried out as
	// Window.TypeCounts) in the same pass that partitions the events, so
	// downstream indicator extraction and required-type pruning never
	// rescan a window.
	slotCounts []int
	dropped    int64
	panes      int64 // panes cut (tumbling: one per window)

	// ring is the pane tally ring backing sliding-window assembly.
	ring paneRing
}

// NewWindower builds a windower cutting tumbling windows of the given width.
// lateness is only consulted under the ReorderBuffer policy and must be
// non-negative. horizon bounds how far past the stream's newest event one
// event may jump — and therefore how many gap windows a single push can
// force; 0 disables the bound.
func NewWindower(width event.Timestamp, policy LatenessPolicy, lateness, horizon event.Timestamp) *Windower {
	return NewSlidingWindower(width, width, policy, lateness, horizon)
}

// NewSlidingWindower builds a windower cutting sliding windows of the given
// width advancing by slide, which must be a positive divisor of width
// (slide == width degenerates to NewWindower's tumbling behavior, same code
// path and all). Sliding windows are assembled from panes of the slide
// width; see the Windower doc for the sharing model and the PushInto
// contract for buffer ownership.
func NewSlidingWindower(width, slide event.Timestamp, policy LatenessPolicy, lateness, horizon event.Timestamp) *Windower {
	if width <= 0 {
		panic("runtime: window width must be positive")
	}
	if slide <= 0 || slide > width || width%slide != 0 {
		panic("runtime: window slide must be a positive divisor of the width")
	}
	if lateness < 0 {
		panic("runtime: allowed lateness must be non-negative")
	}
	if horizon < 0 {
		panic("runtime: horizon must be non-negative")
	}
	w := &Windower{width: width, slide: slide, overlap: int(width / slide), policy: policy, lateness: lateness, horizon: horizon}
	w.ring.overlap = w.overlap
	return w
}

// watermark is the time up to which the stream is considered complete: no
// window ending at or before it will admit further events.
func (w *Windower) watermark() event.Timestamp {
	if w.policy == ReorderBuffer {
		return w.maxTime - w.lateness
	}
	return w.maxTime
}

// Push feeds one event and returns the windows it closed, oldest first,
// along with whether the event was accepted or why it was discarded.
func (w *Windower) Push(e event.Event) (closed []stream.Window, res PushResult) {
	return w.PushInto(e, nil)
}

// PushInto is Push appending closed windows into dst, so a streaming caller
// can reuse one window buffer across pushes instead of allocating a slice
// per cut. For tumbling windows the returned windows
// (their Events and TypeCounts) stay valid after the buffer is reused; only
// the slice header is recycled. Pane-assembled sliding windows carry no
// Events and their TypeCounts are windower-owned scratch, valid only until
// the next Push/Flush call — callers that retain them must copy.
func (w *Windower) PushInto(e event.Event, dst []stream.Window) (closed []stream.Window, res PushResult) {
	if w.started && w.horizon > 0 && e.Time > w.maxTime+w.horizon {
		// A runaway timestamp would force an unbounded run of gap
		// windows (and poison the watermark, turning every later
		// on-time event into a late drop). Reject it instead.
		w.dropped++
		return dst, PushFuture
	}
	if w.overlap > 1 {
		// Snapshots handed out by the previous call are reclaimable now —
		// the PushInto contract bounds their lifetime to one call.
		w.ring.recycleEmitted()
	}
	if !w.started {
		w.started = true
		// In pane mode the earliest open slot is the pane containing the
		// event; the first emitted window is the earliest sliding window
		// covering it, which ends exactly at that pane's end.
		w.nextStart = stream.AlignDown(e.Time, w.slide)
		w.maxTime = e.Time
	}
	if e.Time < w.nextStart {
		w.dropped++
		return dst, PushLate
	}
	w.pending = append(w.pending, e)
	idx := int((stream.AlignDown(e.Time, w.slide) - w.nextStart) / w.slide)
	for idx >= len(w.slotCounts) {
		w.slotCounts = append(w.slotCounts, 0)
	}
	w.slotCounts[idx]++
	if e.Time > w.maxTime {
		w.maxTime = e.Time
	}
	return w.cut(dst, w.watermark()), PushAccepted
}

// Flush closes every window still holding or preceding pending events —
// the stream's trailing windows at shutdown — and resets the windower for
// a fresh feed. In pane mode the trailing partially-covered sliding windows
// (those whose interval extends past the last pane) are emitted too,
// mirroring stream.Sliding: every window whose start is at or before the
// newest event's pane is answered.
func (w *Windower) Flush() []stream.Window {
	return w.FlushInto(nil)
}

// FlushInto is Flush appending the trailing windows into dst. The PushInto
// ownership contract applies: pane-assembled windows' TypeCounts are valid
// only until the next Push/Flush call.
func (w *Windower) FlushInto(dst []stream.Window) []stream.Window {
	if !w.started {
		return dst
	}
	if w.overlap > 1 {
		w.ring.recycleEmitted()
	}
	lastSlotEnd := stream.AlignDown(w.maxTime, w.slide) + w.slide
	out := w.cut(dst, lastSlotEnd)
	if w.overlap > 1 {
		// Trailing windows still cover the newest panes; emit them by
		// rotating empty panes through the ring, up to the window whose
		// start is the newest event's pane.
		lastStart := lastSlotEnd - w.slide
		for s := lastSlotEnd - w.width + w.slide; s <= lastStart; s += w.slide {
			w.ring.push(w.ring.takeSlot())
			out = append(out, stream.Window{Start: s, End: s + w.width, TypeCounts: w.ring.snapshot()})
		}
		w.ring.reset()
	}
	w.started = false
	w.pending = nil
	w.slotCounts = w.slotCounts[:0]
	return out
}

// Dropped returns how many events were discarded — by the lateness policy
// or by the horizon bound.
func (w *Windower) Dropped() int64 { return w.dropped }

// Panes returns how many panes the windower has cut. Tumbling windows are
// single panes (the counter tracks windows).
func (w *Windower) Panes() int64 { return w.panes }

// Overlap returns how many panes cover each window: width/slide, 1 for
// tumbling windows.
func (w *Windower) Overlap() int { return w.overlap }

// cut closes all windows ending at or before the given watermark, appending
// them to out. Tumbling mode (overlap == 1) assigns pending events and sorts
// each window into canonical stream order; each closed window takes
// ownership of its occurrence map as TypeCounts (empty gap windows carry
// none). Pane mode (overlap > 1) instead closes panes: each closed pane's
// tally is merged into the ring, and the sliding window ending at the pane's
// end is emitted with the ring's merged tally and no Events — the pane path
// never copies or sorts events per window.
func (w *Windower) cut(out []stream.Window, watermark event.Timestamp) []stream.Window {
	for w.nextStart+w.slide <= watermark {
		end := w.nextStart + w.slide
		total := 0
		if len(w.slotCounts) > 0 {
			total = w.slotCounts[0]
			w.slotCounts = w.slotCounts[:copy(w.slotCounts, w.slotCounts[1:])]
		}
		w.panes++
		if w.overlap > 1 {
			tally := w.ring.takeSlot()
			if total > 0 {
				rest := w.pending[:0]
				for _, e := range w.pending {
					if e.Time < end {
						tally = tally.Add(e.Type)
					} else {
						rest = append(rest, e)
					}
				}
				w.pending = rest
			}
			w.ring.push(tally)
			out = append(out, stream.Window{Start: end - w.width, End: end, TypeCounts: w.ring.snapshot()})
			w.nextStart = end
			continue
		}
		cur := stream.Window{Start: w.nextStart, End: end}
		if total > 0 {
			// The slot population is known, so the window's event slice
			// is allocated exactly once at final size, and its type
			// occurrences are tallied in the same pass that assigns the
			// events.
			cur.Events = make([]event.Event, 0, total)
			cur.TypeCounts = make(stream.TypeCounts, 0, min(total, 8))
			rest := w.pending[:0]
			for _, e := range w.pending {
				if e.Time < end {
					cur.Events = append(cur.Events, e)
					cur.TypeCounts = cur.TypeCounts.Add(e.Type)
				} else {
					rest = append(rest, e)
				}
			}
			w.pending = rest
			event.SortEvents(cur.Events)
		}
		out = append(out, cur)
		w.nextStart = end
	}
	return out
}

// paneRing is the tally ring backing sliding-window assembly: the per-type
// tallies of the last overlap panes, plus the running merged tally that is
// snapshotted into each emitted window. Slot and snapshot buffers are
// recycled through a free list, so a steady-state stream allocates nothing
// per pane or window.
type paneRing struct {
	overlap int
	slots   []stream.TypeCounts // per-pane tallies; ring of up to overlap entries
	head, n int
	tally   stream.TypeCounts   // running merge of the ring (may hold zero entries)
	free    []stream.TypeCounts // recycled slot/snapshot buffers
	emitted []stream.TypeCounts // snapshots handed out since the last recycle
}

// takeSlot returns an empty tally buffer for the next pane (or snapshot).
func (r *paneRing) takeSlot() stream.TypeCounts {
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return buf[:0]
	}
	return nil
}

// push appends the next pane's tally, evicting the oldest pane (and
// unmerging its contribution) once the ring holds overlap panes.
func (r *paneRing) push(tally stream.TypeCounts) {
	if r.slots == nil {
		r.slots = make([]stream.TypeCounts, r.overlap)
	}
	if r.n == r.overlap {
		old := r.slots[r.head]
		r.tally = r.tally.Unmerge(old)
		r.free = append(r.free, old)
		r.slots[r.head] = nil
		r.head = (r.head + 1) % r.overlap
		r.n--
	}
	r.slots[(r.head+r.n)%r.overlap] = tally
	r.n++
	r.tally = r.tally.Merge(tally)
}

// snapshot captures the ring's merged tally — the assembled window's
// TypeCounts — into a recycled buffer, dropping the zero entries the running
// tally keeps for stability. The buffer is owned by the ring and reclaimed
// at the next recycleEmitted; empty windows return nil.
func (r *paneRing) snapshot() stream.TypeCounts {
	buf := r.tally.CompactNZ(r.takeSlot())
	if len(buf) == 0 {
		if buf != nil {
			r.free = append(r.free, buf)
		}
		return nil
	}
	r.emitted = append(r.emitted, buf)
	return buf
}

// recycleEmitted reclaims the snapshot buffers handed out by the previous
// Push/Flush call, and compacts the running tally's dead entries once they
// outnumber the live ones (a stream whose type population drifts would
// otherwise scan ever-longer tallies).
func (r *paneRing) recycleEmitted() {
	for i, buf := range r.emitted {
		r.free = append(r.free, buf)
		r.emitted[i] = nil
	}
	r.emitted = r.emitted[:0]
	nz := 0
	for _, c := range r.tally {
		if c.N != 0 {
			nz++
		}
	}
	if dead := len(r.tally) - nz; dead > nz && dead > 8 {
		r.tally = r.tally.CompactNZ(r.tally[:0])
	}
}

// reset clears the ring for a fresh feed, keeping the recycled buffers.
func (r *paneRing) reset() {
	for i := range r.slots {
		if r.slots[i] != nil {
			r.free = append(r.free, r.slots[i])
			r.slots[i] = nil
		}
	}
	r.head, r.n = 0, 0
	r.tally = r.tally[:0]
}
