package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/wire"
)

// checkFixture is one tenant's subscribe-all stream over a short answer-
// sliding load: the generator's truth, and a well-formed answer stream
// released through the serving mechanism.
type checkFixture struct {
	spec    servingSpec
	gen     *generator
	queries []cep.Query
	streams map[string]int
	qidx    map[string]int
	answers []wire.Answer
	windows int64
}

func newCheckFixture(t *testing.T, noise bool) *checkFixture {
	t.Helper()
	spec := servingSpecs["answer-sliding"]
	f := &checkFixture{spec: spec, gen: newGenerator(spec, 7, 0, ""), streams: map[string]int{}, qidx: map[string]int{}}
	var err error
	if f.queries, err = spec.parseQueries(); err != nil {
		t.Fatal(err)
	}
	for i, q := range f.queries {
		f.qidx[q.Name] = i
	}
	for s, name := range f.gen.sources {
		f.streams[name] = s
	}
	for k := 0; k < 200; k++ {
		f.gen.nextBatch()
	}
	f.windows = f.gen.closedWindows()
	mech := mechanism()
	rng := rand.New(rand.NewSource(3))
	charge := float64(mech.TotalEpsilon())
	seq := uint64(0)
	for s, name := range f.gen.sources {
		for w := int64(0); w < f.windows; w++ {
			present := presence(f.gen.windowMask(s, w))
			released := present
			if noise {
				released = mech.PerturbWindow(rng, present)
			}
			for _, q := range f.queries {
				seq++
				spent := float64(w+1) * charge
				f.answers = append(f.answers, wire.Answer{
					Sub: 1, Seq: seq, Stream: name, Query: q.Name,
					WindowIndex: uint64(w), Start: (w+1)*spec.slide - spec.width, End: (w + 1) * spec.slide,
					Detected:     cep.EvalIndicators(q.Pattern, released),
					SpentEpsilon: spent, RemainingEpsilon: serveGrant - spent,
				})
			}
		}
	}
	return f
}

// verify runs every check over the answers and returns the violations.
func (f *checkFixture) verify(t *testing.T, answers []wire.Answer) *violations {
	t.Helper()
	c := newSubCheck(-1, f.streams, f.qidx, f.spec.slide, budgetTerms{grant: serveGrant, charge: float64(mechanism().TotalEpsilon())})
	for _, a := range answers {
		c.observe(a)
	}
	c.finish(f.windows)
	tt := newTruthTable(f.queries, mechanism().FlipProbs())
	in := noiseInput{chk: c, mask: f.gen.windowMask}
	tt.prepare(in.masks())
	nr, err := checkNoise(tt, []noiseInput{in}, qualityAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if !nr.ok() {
		c.bad.addf("noise: %d mismatches, %.0f ± %.0f expected", nr.mismatches, nr.expected, nr.bound)
	}
	return &c.bad
}

func expectViolation(t *testing.T, bad *violations, want string) {
	t.Helper()
	if bad.n == 0 {
		t.Fatalf("checks passed; want a violation mentioning %q", want)
	}
	for _, m := range bad.msgs {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Fatalf("violations %q do not mention %q", bad.msgs, want)
}

func TestChecksAcceptWellFormedStream(t *testing.T) {
	f := newCheckFixture(t, true)
	if bad := f.verify(t, f.answers); bad.n != 0 {
		t.Fatalf("a well-formed noisy stream failed the checks: %q", bad.msgs)
	}
}

func TestChecksAcceptGapMarker(t *testing.T) {
	f := newCheckFixture(t, true)
	// Answers 11..20 lost to ring overflow and reported as one marker.
	answers := append([]wire.Answer(nil), f.answers[:10]...)
	answers = append(answers, wire.Answer{Sub: 1, Seq: 20, Gap: true, GapFrom: 11})
	answers = append(answers, f.answers[20:]...)
	if bad := f.verify(t, answers); bad.n != 0 {
		t.Fatalf("a gap-covered loss failed the checks: %q", bad.msgs)
	}
}

func TestChecksRejectDroppedAnswer(t *testing.T) {
	f := newCheckFixture(t, true)
	answers := append([]wire.Answer(nil), f.answers[:50]...)
	answers = append(answers, f.answers[51:]...)
	bad := f.verify(t, answers)
	expectViolation(t, bad, "neither delivered nor covered by a gap")
}

func TestChecksRejectDuplicateSeq(t *testing.T) {
	f := newCheckFixture(t, true)
	answers := append([]wire.Answer(nil), f.answers[:50]...)
	answers = append(answers, f.answers[49])
	answers = append(answers, f.answers[50:]...)
	expectViolation(t, f.verify(t, answers), "seq 50 where 51 was next")
}

func TestChecksRejectCrossTenantAnswer(t *testing.T) {
	f := newCheckFixture(t, true)
	answers := append([]wire.Answer(nil), f.answers...)
	leak := answers[len(answers)-1]
	leak.Seq++
	leak.Stream = streamName(1, 0) // the other tenant's stream
	answers = append(answers, leak)
	expectViolation(t, f.verify(t, answers), "foreign stream")
}

func TestChecksRejectNoiseFreeStream(t *testing.T) {
	f := newCheckFixture(t, false)
	expectViolation(t, f.verify(t, f.answers), "noise")
}

func TestChecksRejectOverspend(t *testing.T) {
	f := newCheckFixture(t, true)
	answers := append([]wire.Answer(nil), f.answers...)
	answers[30].SpentEpsilon += 1
	expectViolation(t, f.verify(t, answers), "spent")
}

func TestHistSlicedMedianOfSlices(t *testing.T) {
	h := newHist(phase{0, 4 * time.Second})
	for i := 0; i < 4000; i++ {
		// Four one-second slices with medians 1000, 2000, 3000 and 1e6 ns.
		v := float64(1000 * (i/1000 + 1))
		if i >= 3000 {
			v = 1e6
		}
		h.add(time.Duration(i)*time.Millisecond, v)
	}
	got, n := h.sliced(0.5)
	if n != 4000 || math.Abs(got-2500)/2500 > 0.02 {
		t.Fatalf("sliced median = %v over %d samples, want 2500 (within a bucket) over 4000", got, n)
	}
}
