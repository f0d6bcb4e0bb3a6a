package cep

import (
	"errors"
	"fmt"

	"patterndp/internal/event"
)

// NFA is a compiled streaming matcher for sequence patterns. It implements
// skip-till-any-match semantics: between consecutive pattern elements any
// number of irrelevant events may occur, and every combination of matching
// events within the time window yields a detection.
//
// Only Seq-of-Atom expressions compile to an NFA; composite operators are
// evaluated by the window walker behind Plan.EvalWindow. This split mirrors
// production engines, where hot sequence queries run incrementally and rich
// queries run on materialized windows.
type NFA struct {
	name   string
	atoms  []*Atom
	window event.Timestamp // max allowed End-Start of a match; 0 = unbounded
	// runs are the active partial matches, ordered by creation.
	runs []*run
	// maxRuns bounds memory; new partial matches beyond it are dropped
	// oldest-first. 0 means unlimited.
	maxRuns int
	dropped uint64
	// free recycles run structs (and their event-slice capacity) from
	// expired and evicted partial matches, so steady-state feeding stops
	// allocating per partial match.
	free []*run
	// druns are the detect-only partial matches of FeedDetect: value
	// types carrying just progress and the first/last matched timestamps,
	// so continuous detection across pane boundaries never materializes
	// witness events.
	druns []detectRun
}

// detectRun is a witness-free partial match: it has consumed events for
// atoms[0:progress], the earliest at time first, the latest at time last.
type detectRun struct {
	progress    int
	first, last event.Timestamp
}

// maxFreeRuns bounds the free list so a transient burst of partial matches
// does not pin memory forever.
const maxFreeRuns = 1024

// run is a partial match that has consumed events for atoms[0:progress].
type run struct {
	progress int
	events   []event.Event
}

// NFAOption configures a compiled NFA.
type NFAOption func(*NFA)

// WithMaxRuns bounds the number of simultaneously active partial matches.
func WithMaxRuns(n int) NFAOption {
	return func(m *NFA) { m.maxRuns = n }
}

// CompileSeq compiles a sequence expression into a streaming NFA. window
// limits the logical-time span between the first and last element of a
// match; pass 0 for no limit. Only atoms are allowed as sequence parts.
func CompileSeq(name string, s *Seq, window event.Timestamp, opts ...NFAOption) (*NFA, error) {
	if s == nil {
		return nil, errors.New("cep: nil sequence")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if window < 0 {
		return nil, errors.New("cep: negative window")
	}
	atoms := make([]*Atom, len(s.Parts))
	for i, p := range s.Parts {
		a, ok := p.(*Atom)
		if !ok {
			return nil, fmt.Errorf("cep: CompileSeq supports atoms only, part %d is %T", i, p)
		}
		atoms[i] = a
	}
	m := &NFA{name: name, atoms: atoms, window: window}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Name returns the pattern name detections are labelled with.
func (m *NFA) Name() string { return m.name }

// Len returns the number of sequence elements.
func (m *NFA) Len() int { return len(m.atoms) }

// ActiveRuns reports the number of live partial matches.
func (m *NFA) ActiveRuns() int { return len(m.runs) }

// Dropped reports how many partial matches were evicted by the maxRuns bound.
func (m *NFA) Dropped() uint64 { return m.dropped }

// Reset discards all partial matches, recycling their run structs, and
// clears the eviction counter.
func (m *NFA) Reset() {
	for _, r := range m.runs {
		m.recycle(r)
	}
	m.runs = m.runs[:0]
	m.druns = m.druns[:0]
	m.dropped = 0
}

// newRun pops a recycled run from the free list (keeping its event-slice
// capacity) or allocates a fresh one.
func (m *NFA) newRun(progress int) *run {
	if n := len(m.free); n > 0 {
		r := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		r.progress = progress
		r.events = r.events[:0]
		return r
	}
	return &run{progress: progress}
}

// recycle returns a dead run to the free list. Its events slice is reused,
// which is safe because completed matches always copy into a fresh slice
// before escaping into a detection.
func (m *NFA) recycle(r *run) {
	if len(m.free) < maxFreeRuns {
		m.free = append(m.free, r)
	}
}

// feed advances the matcher with one event, invoking sink for every pattern
// instance the event completes. The witness slice passed to sink is freshly
// allocated and owned by the sink. A sink returning false stops matching
// for this event; feed reports whether it ran to completion.
func (m *NFA) feed(e event.Event, sink func([]event.Event) bool) bool {
	// Expire runs whose window can no longer be satisfied.
	if m.window > 0 {
		alive := m.runs[:0]
		for _, r := range m.runs {
			if len(r.events) > 0 && e.Time-r.events[0].Time >= m.window {
				m.recycle(r)
				continue
			}
			alive = append(alive, r)
		}
		for i := len(alive); i < len(m.runs); i++ {
			m.runs[i] = nil
		}
		m.runs = alive
	}
	// Advance existing runs. Skip-till-any-match: a run that could advance
	// also persists unadvanced (we clone), so overlapping matches are found.
	var spawned []*run
	for _, r := range m.runs {
		next := m.atoms[r.progress]
		if !next.Matches(e) || len(r.events) > 0 && e.Time <= r.events[len(r.events)-1].Time {
			continue
		}
		if r.progress+1 == len(m.atoms) {
			evs := make([]event.Event, len(r.events)+1)
			copy(evs, r.events)
			evs[len(r.events)] = e
			if !sink(evs) {
				m.runs = append(m.runs, spawned...)
				return false
			}
			continue
		}
		child := m.newRun(r.progress + 1)
		child.events = append(child.events, r.events...)
		child.events = append(child.events, e)
		spawned = append(spawned, child)
	}
	// Start a new run if the event matches the first atom.
	if m.atoms[0].Matches(e) {
		if len(m.atoms) == 1 {
			if !sink([]event.Event{e}) {
				m.runs = append(m.runs, spawned...)
				return false
			}
		} else {
			child := m.newRun(1)
			child.events = append(child.events, e)
			spawned = append(spawned, child)
		}
	}
	m.runs = append(m.runs, spawned...)
	if m.maxRuns > 0 && len(m.runs) > m.maxRuns {
		evict := len(m.runs) - m.maxRuns
		m.dropped += uint64(evict)
		for _, r := range m.runs[:evict] {
			m.recycle(r)
		}
		copy(m.runs, m.runs[evict:])
		tail := m.runs[len(m.runs)-evict:]
		for i := range tail {
			tail[i] = nil
		}
		m.runs = m.runs[:len(m.runs)-evict]
	}
	return true
}

// Feed advances the matcher with one event and returns every pattern
// instance completed by it. Events must arrive in canonical stream order.
func (m *NFA) Feed(e event.Event) []event.Pattern {
	var detections []event.Pattern
	m.feed(e, func(evs []event.Event) bool {
		detections = append(detections, event.Pattern{Name: m.name, Events: evs})
		return true
	})
	return detections
}

// FeedAll feeds a batch of events in order and returns all detections.
func (m *NFA) FeedAll(evs []event.Event) []event.Pattern {
	var out []event.Pattern
	for _, e := range evs {
		out = append(out, m.Feed(e)...)
	}
	return out
}

// FeedDetect advances the matcher with one event in detection-only mode and
// reports the latest first-event timestamp among the matches the event
// completes (ok is false when it completes none). It is the carry-over feed
// for sliding windows: one matcher runs continuously across pane boundaries,
// partial matches are value types holding only their progress and time span
// (no witness events are ever materialized or copied), and the reported span
// (first, e.Time] is exactly what a caller needs to mark every sliding
// window that fully contains a match — the match starting latest is the one
// contained in the most windows, so later-starting matches completed by the
// same event are subsumed. Runs expire under the compiled window bound like
// Feed. FeedDetect and Feed/FirstMatch keep separate run state; use one mode
// per matcher between Resets.
func (m *NFA) FeedDetect(e event.Event) (first event.Timestamp, ok bool) {
	if m.window > 0 {
		alive := m.druns[:0]
		for _, r := range m.druns {
			if e.Time-r.first < m.window {
				alive = append(alive, r)
			}
		}
		m.druns = alive
	}
	// Advance existing runs; skip-till-any-match clones, so an advancing
	// run also persists unadvanced. Children are appended past base and not
	// themselves advanced by this event (their last == e.Time forbids it).
	base := len(m.druns)
	for i := 0; i < base; i++ {
		r := m.druns[i]
		if e.Time <= r.last || !m.atoms[r.progress].Matches(e) {
			continue
		}
		if r.progress+1 == len(m.atoms) {
			if !ok || r.first > first {
				first, ok = r.first, true
			}
			continue
		}
		m.druns = append(m.druns, detectRun{progress: r.progress + 1, first: r.first, last: e.Time})
	}
	if m.atoms[0].Matches(e) {
		if len(m.atoms) == 1 {
			first, ok = e.Time, true
		} else {
			m.druns = append(m.druns, detectRun{progress: 1, first: e.Time, last: e.Time})
		}
	}
	if m.maxRuns > 0 && len(m.druns) > m.maxRuns {
		evict := len(m.druns) - m.maxRuns
		m.dropped += uint64(evict)
		m.druns = m.druns[:copy(m.druns, m.druns[evict:])]
	}
	return first, ok
}

// FirstMatch feeds events in order and returns the first completed instance,
// stopping as soon as one is found — the detect-only entry point used by
// compiled plans to answer a window's boolean question. The matcher state is
// left mid-stream; Reset before reuse.
func (m *NFA) FirstMatch(evs []event.Event) ([]event.Event, bool) {
	var witness []event.Event
	for _, e := range evs {
		done := !m.feed(e, func(w []event.Event) bool {
			witness = w
			return false
		})
		if done {
			return witness, true
		}
	}
	return nil, false
}
