package stream

import (
	"patterndp/internal/event"
)

// TypeCount is one entry of a window's type-occurrence tally.
type TypeCount struct {
	// Type is the tallied event type.
	Type event.Type
	// N is how often it occurs in the window.
	N int
}

// TypeCounts is a compact per-type occurrence tally, ordered by first
// appearance. Windows hold a handful of distinct types, so a linear scan
// beats a hash map on the serving path — no hashing, and the whole tally is
// one small allocation.
type TypeCounts []TypeCount

// Count returns the tallied occurrences of t (0 when absent).
func (tc TypeCounts) Count(t event.Type) int {
	for i := range tc {
		if tc[i].Type == t {
			return tc[i].N
		}
	}
	return 0
}

// Add increments t's tally, appending a new entry on first occurrence, and
// returns the updated tally.
func (tc TypeCounts) Add(t event.Type) TypeCounts {
	for i := range tc {
		if tc[i].Type == t {
			tc[i].N++
			return tc
		}
	}
	return append(tc, TypeCount{Type: t, N: 1})
}

// AddCount adds n occurrences of t to the tally and returns the updated
// tally. n may be negative to subtract (the entry must exist and stay
// non-negative; merging and unmerging pane tallies in a ring preserves this
// by construction). Zero entries are kept — Count and Contains treat them as
// absent — so a hot ring tally does not reshuffle as panes rotate; CompactNZ
// drops them when the tally is snapshotted.
func (tc TypeCounts) AddCount(t event.Type, n int) TypeCounts {
	for i := range tc {
		if tc[i].Type == t {
			tc[i].N += n
			if tc[i].N < 0 {
				panic("stream: TypeCounts count below zero")
			}
			return tc
		}
	}
	if n < 0 {
		panic("stream: TypeCounts count below zero")
	}
	return append(tc, TypeCount{Type: t, N: n})
}

// Merge adds every entry of other into the tally and returns the updated
// tally — the pane-ring merge: a window's tally is the merge of its panes'
// tallies, O(panes x distinct types) instead of O(events).
func (tc TypeCounts) Merge(other TypeCounts) TypeCounts {
	for _, c := range other {
		if c.N != 0 {
			tc = tc.AddCount(c.Type, c.N)
		}
	}
	return tc
}

// Unmerge subtracts every entry of other from the tally and returns the
// updated tally — the pane-ring eviction: when a pane rotates out of a
// window's ring, its contribution is removed from the running tally. Every
// entry of other must have been merged in before.
func (tc TypeCounts) Unmerge(other TypeCounts) TypeCounts {
	for _, c := range other {
		if c.N != 0 {
			tc = tc.AddCount(c.Type, -c.N)
		}
	}
	return tc
}

// CompactNZ appends the tally's non-zero entries to dst and returns it — the
// snapshot step that turns a running ring tally (which keeps zero entries for
// stability) into a window's compact tally.
func (tc TypeCounts) CompactNZ(dst TypeCounts) TypeCounts {
	for _, c := range tc {
		if c.N != 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// Clone returns an independent compacted copy of the tally (nil when it has
// no non-zero entries) — the serialization form used when pane-ring tallies
// are checkpointed and restored: zero entries exist only for in-ring
// stability and carry no information, so they are not persisted.
func (tc TypeCounts) Clone() TypeCounts {
	n := 0
	for _, c := range tc {
		if c.N != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return tc.CompactNZ(make(TypeCounts, 0, n))
}
