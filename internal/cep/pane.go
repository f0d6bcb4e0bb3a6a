package cep

import (
	"fmt"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// SlidingEval evaluates one compiled plan continuously over a pane-sliced
// stream, sharing detection work across overlapping windows instead of
// re-scanning each window from scratch. The stream is pushed as consecutive
// panes of the slide width (stream.Pane); every pushed pane closes exactly
// one window — the one ending at the pane's end — and PushPane returns its
// concrete-window detection verdict.
//
// Three sharing strategies, picked from the plan's shape at construction:
//
//   - Seq-of-Atom patterns run one incremental NFA across pane boundaries
//     (NFA.FeedDetect): partial matches carry over instead of the matcher
//     rescanning the full window per slide, each event is fed exactly once,
//     and a completed match marks every window that contains its time span.
//   - Order-free patterns (AND/OR/NEG over atoms) keep one bitset of
//     per-leaf match bits per pane; a window's bits are the OR across its
//     pane ring — O(panes) per window — and the plan's window program
//     answers from the merged bits.
//   - Everything else (TIMES, SEQ under composites) falls back to assembling
//     the window's events from a ring of retained pane copies and running
//     Plan.DetectWindow; the assembly scratch is reused across windows, so
//     the fallback pays per-window scanning but no per-window buffer growth.
//
// A SlidingEval is stateful and not safe for concurrent use.
type SlidingEval struct {
	plan    *Plan
	width   event.Timestamp
	slide   event.Timestamp
	overlap int

	started bool
	next    event.Timestamp // expected start of the next pane
	cur     int             // index of the window the next pane closes

	// seq mode: continuous matcher + pending-verdict ring. pend[k%overlap]
	// is the verdict accumulating for the window closed by pane k.
	nfa  *NFA
	pend []bool

	// bits mode: per-pane leaf bitsets, ring of the last overlap panes.
	bits []uint64

	// fallback mode: retained pane event copies + window assembly scratch.
	paneEvs [][]event.Event
	scratch []event.Event
}

// Sliding returns a sliding evaluator for the plan over windows of the given
// width advancing by slide; width must be a positive multiple of slide.
// Queries evaluated this way typically set width to the query's Window.
func (p *Plan) Sliding(width, slide event.Timestamp) (*SlidingEval, error) {
	if slide <= 0 || width <= 0 || width%slide != 0 {
		return nil, fmt.Errorf("cep: sliding evaluation requires width > 0, slide > 0, width %% slide == 0 (got %d, %d)", width, slide)
	}
	se := &SlidingEval{plan: p, width: width, slide: slide, overlap: int(width / slide)}
	switch {
	case p.seq != nil:
		m, err := CompileSeq(p.query.Name, p.seq, width, p.nfaOpts...)
		if err != nil {
			// Unreachable: the pattern compiled to p.seq before.
			return nil, err
		}
		se.nfa = m
		se.pend = make([]bool, se.overlap)
	case p.win != nil:
		se.bits = make([]uint64, se.overlap)
	default:
		se.paneEvs = make([][]event.Event, se.overlap)
	}
	return se, nil
}

// PushPane feeds the next pane and reports whether the pattern occurs in the
// window ending at the pane's end, [pane.End-width, pane.End). Panes must be
// consecutive intervals of the slide width with time-ordered events (pass an
// empty pane for a gap); pane events are consumed during the call in seq and
// bits modes, and copied in fallback mode, so the caller keeps ownership.
func (se *SlidingEval) PushPane(pane stream.Pane) bool {
	if pane.End-pane.Start != se.slide {
		panic(fmt.Sprintf("cep: pane [%d,%d) is not one slide (%d) wide", pane.Start, pane.End, se.slide))
	}
	if se.started && pane.Start != se.next {
		panic(fmt.Sprintf("cep: pane starting at %d pushed, expected %d", pane.Start, se.next))
	}
	se.started = true
	se.next = pane.End
	slot := se.cur % se.overlap
	se.cur++
	switch {
	case se.nfa != nil:
		for _, e := range pane.Events {
			first, ok := se.nfa.FeedDetect(e)
			if !ok {
				continue
			}
			// The match spans (first, e.Time]; it is contained in every
			// window [s, s+width) with s <= first and s+width > e.Time.
			// Window ends lie on the pane grid (pane.End + i*slide for
			// verdict index i), so the last containing window is the one
			// ending at most first+width: hi = floor((first + width -
			// pane.End) / slide), floored via AlignDown so a sub-slide
			// overshoot on an unaligned pane grid rounds down, never up
			// (Go's truncating division would round -1/2 to 0 and mark a
			// window that misses the match).
			hi := int(stream.AlignDown(first+se.width-pane.End, se.slide) / se.slide)
			if hi >= se.overlap {
				hi = se.overlap - 1
			}
			for i := 0; i <= hi; i++ {
				se.pend[(slot+i)%se.overlap] = true
			}
		}
		v := se.pend[slot]
		se.pend[slot] = false // the slot now accumulates for window cur+overlap
		return v
	case se.bits != nil:
		var bits uint64
		leaves := se.plan.win.leaves
		all := uint64(1)<<uint(len(leaves)) - 1
		for _, e := range pane.Events {
			for i, a := range leaves {
				if bits&(1<<uint(i)) == 0 && a.Matches(e) {
					bits |= 1 << uint(i)
				}
			}
			if bits == all {
				break
			}
		}
		se.bits[slot] = bits
		merged := uint64(0)
		n := se.cur
		if n > se.overlap {
			n = se.overlap
		}
		for i := 0; i < n; i++ {
			merged |= se.bits[i]
		}
		return se.plan.win.eval(func(i int32) bool { return merged&(1<<uint(i)) != 0 })
	default:
		se.paneEvs[slot] = append(se.paneEvs[slot][:0], pane.Events...)
		se.scratch = se.scratch[:0]
		// Oldest pane first: slots cur-n..cur-1 in ring order.
		n := se.cur
		if n > se.overlap {
			n = se.overlap
		}
		for i := se.cur - n; i < se.cur; i++ {
			se.scratch = append(se.scratch, se.paneEvs[i%se.overlap]...)
		}
		w := stream.Window{Start: pane.End - se.width, End: pane.End, Events: se.scratch}
		return se.plan.DetectWindow(w)
	}
}

// Reset clears all carried state for a fresh pane feed.
func (se *SlidingEval) Reset() {
	se.started = false
	se.cur = 0
	if se.nfa != nil {
		se.nfa.Reset()
		for i := range se.pend {
			se.pend[i] = false
		}
	}
	for i := range se.bits {
		se.bits[i] = 0
	}
	for i := range se.paneEvs {
		se.paneEvs[i] = se.paneEvs[i][:0]
	}
}
