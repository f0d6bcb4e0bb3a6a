package main

import (
	"fmt"
	"math"
	"math/rand"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/wire"
)

// violations collects failed correctness checks; the first few are kept
// verbatim for the report.
type violations struct {
	n    int
	msgs []string
}

func (v *violations) addf(format string, args ...any) {
	v.n++
	if len(v.msgs) < 8 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) merge(o *violations) {
	v.n += o.n
	for _, m := range o.msgs {
		if len(v.msgs) < 8 {
			v.msgs = append(v.msgs, m)
		}
	}
}

// budgetTerms are the ledger parameters every released answer must agree
// with; a zero grant means accounting is off.
type budgetTerms struct {
	grant, charge float64
}

// subCheck verifies one subscription's answer stream as it arrives:
// contiguous Seq (gaps only as explicit markers), no duplicates, only the
// tenant's own streams, only the queries the subscription can see, and
// budget positions consistent with one charge per admitted window.
type subCheck struct {
	query   int // index of the subscribed query; -1 for subscribe-all
	streams map[string]int
	queries map[string]int
	slide   int64
	budget  budgetTerms

	nextSeq   uint64
	delivered int64
	gapped    int64
	last      []int64 // last window index per (stream, query)
	// got[s][w] and det[s][w] have bit q set when query q's answer for
	// stream s's window w was delivered, and when it reported a detection:
	// all the end-of-run truth check needs, in 4 bytes per window.
	got, det [][]uint16
	bad      violations
}

func newSubCheck(query int, streams, queries map[string]int, slide int64, budget budgetTerms) *subCheck {
	if len(queries) > 16 {
		panic("subCheck: more than 16 queries")
	}
	c := &subCheck{query: query, streams: streams, queries: queries, slide: slide, budget: budget, nextSeq: 1,
		got: make([][]uint16, len(streams)), det: make([][]uint16, len(streams))}
	c.last = make([]int64, len(streams)*len(queries))
	for i := range c.last {
		c.last[i] = -1
	}
	return c
}

// observe checks one received answer and reports whether it is a delivered
// release (not a gap marker or a rejected answer).
func (c *subCheck) observe(a wire.Answer) bool {
	if a.Gap {
		if a.GapFrom != c.nextSeq || a.Seq < a.GapFrom {
			c.bad.addf("gap [%d,%d] does not start at the next seq %d", a.GapFrom, a.Seq, c.nextSeq)
		}
		if a.Seq >= c.nextSeq {
			c.gapped += int64(a.Seq - max(a.GapFrom, c.nextSeq) + 1)
			c.nextSeq = a.Seq + 1
		}
		return false
	}
	if a.Seq != c.nextSeq {
		c.bad.addf("seq %d where %d was next", a.Seq, c.nextSeq)
		if a.Seq < c.nextSeq {
			return false // a repeat: never count it twice
		}
	}
	c.nextSeq = a.Seq + 1
	s, ok := c.streams[a.Stream]
	if !ok {
		c.bad.addf("answer for foreign stream %q", a.Stream)
		return false
	}
	q, ok := c.queries[a.Query]
	if !ok || (c.query >= 0 && q != c.query) {
		c.bad.addf("answer for query %q outside the subscription", a.Query)
		return false
	}
	win := int64(a.WindowIndex)
	slot := s*len(c.queries) + q
	if win <= c.last[slot] {
		c.bad.addf("window %d of %s/%s delivered again or out of order", win, a.Stream, a.Query)
		return false
	}
	c.last[slot] = win
	if a.End != (win+1)*c.slide {
		c.bad.addf("window %d of %s ends at %d, want %d", win, a.Stream, a.End, (win+1)*c.slide)
	}
	if a.Suppressed {
		c.bad.addf("window %d of %s suppressed under an unexhausted grant", win, a.Stream)
	}
	if b := c.budget; b.grant > 0 {
		want := float64(win+1) * b.charge
		tol := 1e-9 * max(1, want)
		if math.Abs(a.SpentEpsilon-want) > tol || a.SpentEpsilon > b.grant+tol ||
			math.Abs(a.RemainingEpsilon-(b.grant-a.SpentEpsilon)) > 1e-9*b.grant {
			c.bad.addf("window %d of %s: spent %.9g remaining %.9g, want spent %.9g of %.9g",
				win, a.Stream, a.SpentEpsilon, a.RemainingEpsilon, want, b.grant)
		}
	}
	for int64(len(c.got[s])) <= win {
		c.got[s] = append(c.got[s], 0)
		c.det[s] = append(c.det[s], 0)
	}
	bit := uint16(1) << q
	if c.got[s][win]&bit != 0 {
		c.bad.addf("window %d of %s/%s delivered twice", win, a.Stream, a.Query)
		return false
	}
	c.got[s][win] |= bit
	if a.Detected {
		c.det[s][win] |= bit
	}
	c.delivered++
	return true
}

// expected is the number of answers the subscription should have received
// once every stream closed windows windows.
func (c *subCheck) expected(windows int64) int64 {
	nq := int64(len(c.queries))
	if c.query >= 0 {
		nq = 1
	}
	return int64(len(c.streams)) * windows * nq
}

// finish checks completeness: every expected answer arrived exactly once or
// is covered by a gap marker. It returns the answers lost without a marker.
func (c *subCheck) finish(windows int64) int64 {
	exp := c.expected(windows)
	got := c.delivered + c.gapped
	for slot, w := range c.last {
		if w >= windows {
			c.bad.addf("stream %d query %d answered window %d of only %d closed", slot/len(c.queries), slot%len(c.queries), w, windows)
		}
	}
	switch {
	case got < exp:
		c.bad.addf("%d of %d expected answers neither delivered nor covered by a gap", exp-got, exp)
		return exp - got
	case got > exp:
		c.bad.addf("%d answers beyond the %d expected", got-exp, exp)
	}
	return 0
}

// truthTable answers "was query q truly detected in a window with this type
// mask" from a core.Identity reference release, and "how likely is the
// mechanism to report it" from core.DetectionProbability; both memoized per
// distinct mask.
type truthTable struct {
	queries []cep.Query
	flips   map[event.Type]float64
	truth   map[uint16][]bool
	pDetect map[uint16][]float64
	calls   int64   // DetectionProbability calls made
	callNs  float64 // their total time
}

func newTruthTable(queries []cep.Query, flips map[event.Type]float64) *truthTable {
	return &truthTable{queries: queries, flips: flips, truth: map[uint16][]bool{}, pDetect: map[uint16][]float64{}}
}

// prepare runs the identity reference pass and the detection probabilities
// for every mask not seen before.
func (t *truthTable) prepare(masks []uint16) {
	var fresh []uint16
	for _, m := range masks {
		if _, ok := t.truth[m]; !ok {
			t.truth[m] = nil
			fresh = append(fresh, m)
		}
	}
	wins := make([]core.IndicatorWindow, len(fresh))
	for i, m := range fresh {
		wins[i] = core.IndicatorWindow{Index: i, Present: presence(m)}
	}
	released := core.Identity{}.Run(nil, wins)
	rng := rand.New(rand.NewSource(1))
	for i, m := range fresh {
		tr := make([]bool, len(t.queries))
		pd := make([]float64, len(t.queries))
		for j, q := range t.queries {
			tr[j] = cep.EvalIndicators(q.Pattern, released[i])
			start := now()
			pd[j] = core.DetectionProbability(q.Pattern, wins[i].Present, t.flips, rng)
			t.callNs += float64(now() - start)
			t.calls++
		}
		t.truth[m] = tr
		t.pDetect[m] = pd
	}
}

// noiseReport compares released answers with the truth.
type noiseReport struct {
	answers    int64
	mismatches int64
	expected   float64 // expected mismatches under the mechanism
	bound      float64 // allowed |mismatches - expected|
	mre        float64 // Eq. 4 over the answers, against the identity release
}

// zNoise is the number of (conservative) standard deviations a mismatch
// count may stray from its expectation before the noise check fails.
const zNoise = 6

// checkNoise tallies Detected-vs-truth mismatches over the delivered
// answers. Each answer mismatches with probability 1-p (truly detected) or
// p (not), p the mechanism's detection probability. Answers of one window
// share one release, so their variances are combined as if perfectly
// correlated: Var <= nq * sum var_i by Cauchy-Schwarz.
func checkNoise(t *truthTable, groups []noiseInput, alpha float64) (noiseReport, error) {
	var r noiseReport
	var variance float64
	var served, ordinary metrics.Confusion
	for _, g := range groups {
		for s := range g.chk.got {
			for w, bits := range g.chk.got[s] {
				m := g.mask(s, int64(w))
				for q := range t.queries {
					bit := uint16(1) << q
					if bits&bit == 0 {
						continue
					}
					truth := t.truth[m][q]
					p := t.pDetect[m][q]
					miss := p
					if truth {
						miss = 1 - p
					}
					detected := g.chk.det[s][w]&bit != 0
					r.answers++
					r.expected += miss
					variance += miss * (1 - miss)
					if truth != detected {
						r.mismatches++
					}
					served.Add(truth, detected)
					ordinary.Add(truth, truth)
				}
			}
		}
	}
	r.bound = zNoise*math.Sqrt(float64(len(t.queries))*variance) + 1
	if r.answers == 0 {
		return r, nil
	}
	mre, err := metrics.MRE(ordinary.Q(alpha), served.Q(alpha))
	if err != nil {
		return r, err
	}
	r.mre = mre
	return r, nil
}

// noiseInput is one subscription's delivered answers with the type mask of
// their windows.
type noiseInput struct {
	chk  *subCheck
	mask func(stream int, win int64) uint16
}

// masks lists the type masks of every window the subscription answered.
func (in noiseInput) masks() []uint16 {
	var out []uint16
	for s := range in.chk.got {
		for w, bits := range in.chk.got[s] {
			if bits != 0 {
				out = append(out, in.mask(s, int64(w)))
			}
		}
	}
	return out
}

func (r noiseReport) ok() bool { return math.Abs(float64(r.mismatches)-r.expected) <= r.bound }
