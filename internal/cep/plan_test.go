package cep

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// randomExprTimes extends the randomExpr generator with TIMES nodes, so plan
// equivalence covers the whole operator set including the Min>1 constant
// fold.
func randomExprTimes(rng *rand.Rand, depth int) Expr {
	types := []event.Type{"a", "b", "c", "d"}
	if depth <= 0 {
		return E(types[rng.Intn(len(types))])
	}
	switch rng.Intn(6) {
	case 0:
		return SeqOf(randomExprTimes(rng, depth-1), randomExprTimes(rng, depth-1))
	case 1:
		return AndOf(randomExprTimes(rng, depth-1), randomExprTimes(rng, depth-1))
	case 2:
		return OrOf(randomExprTimes(rng, depth-1), randomExprTimes(rng, depth-1))
	case 3:
		return NegOf(randomExprTimes(rng, depth-1))
	case 4:
		min := 1 + rng.Intn(3)
		max := 0
		if rng.Intn(2) == 0 {
			max = min + rng.Intn(2)
		}
		return TimesOf(randomExprTimes(rng, depth-1), min, max)
	default:
		return E(types[rng.Intn(len(types))])
	}
}

func mustPlan(t *testing.T, e Expr) *Plan {
	t.Helper()
	p, err := Compile(Query{Name: "q", Pattern: e, Window: 100})
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	return p
}

// TestPropertyPlanIndicators asserts the tentpole equivalence: over any
// presence map, the compiled plan's indicator answer equals the
// EvalIndicators interpreter's, for randomized expressions over the full
// operator set.
func TestPropertyPlanIndicators(t *testing.T) {
	f := func(shape uint32, depth uint8, pa, pb, pc, pd bool) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		e := randomExprTimes(rng, int(depth%4))
		present := map[event.Type]bool{"a": pa, "b": pb, "c": pc, "d": pd}
		p, err := Compile(Query{Name: "q", Pattern: e, Window: 100})
		if err != nil {
			return false
		}
		return p.EvalIndicators(present) == EvalIndicators(e, present)
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randomSeqComposite builds a SEQ whose parts are composite expressions —
// OR, NEG, TIMES and AND over random subtrees, plus plain atoms — the shapes
// the walker handles as sequence heads.
func randomSeqComposite(rng *rand.Rand, depth int) Expr {
	parts := make([]Expr, 1+rng.Intn(3))
	for i := range parts {
		sub := func() Expr { return randomExprTimes(rng, depth-1) }
		switch rng.Intn(5) {
		case 0:
			parts[i] = OrOf(sub(), sub())
		case 1:
			parts[i] = NegOf(sub())
		case 2:
			parts[i] = TimesOf(sub(), 1+rng.Intn(2), 0)
		case 3:
			parts[i] = AndOf(sub(), sub())
		default:
			parts[i] = E(event.Type(rune('a' + rng.Intn(4))))
		}
	}
	return SeqOf(parts...)
}

// checkPlanWindow reports whether the plan's concrete-window answers agree
// with the walker's on w: the same verdict from EvalWindow and DetectWindow,
// the walker's witness exactly when the plan walks the tree, and a real,
// ordered instance when it runs a pooled NFA instead.
func checkPlanWindow(e Expr, w stream.Window) error {
	want, wantWitness := evalWindow(e, w)
	p, err := Compile(Query{Name: "q", Pattern: e, Window: 100})
	if err != nil {
		return err
	}
	got, witness := p.EvalWindow(w)
	if detect := p.DetectWindow(w); got != want || detect != want {
		return fmt.Errorf("%s: plan %t, detect %t, walker %t", e, got, detect, want)
	}
	if p.seq == nil {
		if fmt.Sprint(witness) != fmt.Sprint(wantWitness) {
			return fmt.Errorf("%s: plan witness %v, walker %v", e, witness, wantWitness)
		}
		return nil
	}
	if got && len(witness) != len(p.seq.Parts) {
		return fmt.Errorf("%s: NFA witness %v has the wrong length", e, witness)
	}
	for i, ev := range witness {
		if !p.seq.Parts[i].(*Atom).Matches(ev) || i > 0 && witness[i-1].Time >= ev.Time {
			return fmt.Errorf("%s: NFA witness %v is not an ordered instance", e, witness)
		}
	}
	return nil
}

// TestPropertyPlanWindow asserts that the compiled plan's concrete-window
// answers (required-type pruning, pooled NFA for sequences, the walker
// otherwise) agree with the walker over random expressions of the full
// operator set.
func TestPropertyPlanWindow(t *testing.T) {
	f := func(shape uint32, depth uint8, raw []byte) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		if err := checkPlanWindow(randomExprTimes(rng, int(depth%3)), randomWindow(raw)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyDetectMatchesEvalWindow is TestPropertyPlanWindow over
// sequences of composite parts — NEG, OR, TIMES and AND under SEQ — where
// the walker's sequence search does the work.
func TestPropertyDetectMatchesEvalWindow(t *testing.T) {
	f := func(shape uint32, depth uint8, raw []byte) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		if err := checkPlanWindow(randomSeqComposite(rng, int(depth%3)), randomWindow(raw)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySeqOfAlternativesMatchesGreedy checks sequences whose parts
// are atoms or ORs of atoms against an oracle that does not share the
// walker's code: for single-event parts, greedily taking each part's
// earliest event after the previous one finds a match iff one exists.
func TestPropertySeqOfAlternativesMatchesGreedy(t *testing.T) {
	f := func(shape uint32, raw []byte) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		atom := func() *Atom { return E(event.Type(rune('a' + rng.Intn(4)))) }
		parts := make([]Expr, 1+rng.Intn(3))
		alts := make([][]*Atom, len(parts))
		for i := range parts {
			alts[i] = []*Atom{atom()}
			parts[i] = alts[i][0]
			if rng.Intn(2) == 0 {
				alts[i] = append(alts[i], atom())
				parts[i] = OrOf(alts[i][0], alts[i][1])
			}
		}
		w := randomWindow(raw)
		want, k := true, 0
		after := event.Timestamp(-1)
		for _, alt := range alts {
			for k < len(w.Events) && !(w.Events[k].Time > after && (alt[0].Matches(w.Events[k]) || len(alt) > 1 && alt[1].Matches(w.Events[k]))) {
				k++
			}
			if k == len(w.Events) {
				want = false
				break
			}
			after = w.Events[k].Time
		}
		e := SeqOf(parts...)
		if got := mustPlan(t, e).DetectWindow(w); got != want {
			t.Logf("%s over %v: plan %t, greedy %t", e, w.Events, got, want)
			return false
		}
		return checkPlanWindow(e, w) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// TestSeqOrHeadTriesEveryPart is the regression test for a SEQ whose head
// is an OR: the walker must try every OR part as the sequence head, not
// commit to the first part that occurs somewhere in the window.
func TestSeqOrHeadTriesEveryPart(t *testing.T) {
	w := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("b", 1), event.New("c", 2), event.New("a", 3),
	}}
	q := Query{Name: "q", Pattern: SeqOf(OrOf(E("a"), E("b")), E("c")), Window: 10}
	p := mustPlan(t, q.Pattern)
	ok, witness := p.EvalWindow(w)
	if !ok || fmt.Sprint(witness) != fmt.Sprint(w.Events[:2]) {
		t.Errorf("EvalWindow = %t %v, want b@1 -> c@2", ok, witness)
	}
	if !p.DetectWindow(w) {
		t.Error("DetectWindow: want detected")
	}
	g := NewEngine()
	if err := g.Register(q); err != nil {
		t.Fatal(err)
	}
	if ds := g.EvaluateWindow(w); len(ds) != 1 || !ds[0].Detected {
		t.Errorf("EvaluateWindow = %+v, want detected", ds)
	}
	// A later OR part is a head too: SEQ(a, OR(b, c), d).
	w2 := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("b", 2), event.New("d", 3), event.New("c", 4),
	}}
	if !mustPlan(t, SeqOf(E("a"), OrOf(E("c"), E("b")), E("d"))).DetectWindow(w2) {
		t.Error("SEQ(a, OR(c, b), d): want detected")
	}
	// The witness of a top-level OR stays the first matching part's.
	if _, witness := mustPlan(t, OrOf(E("a"), E("b"))).EvalWindow(w); fmt.Sprint(witness) != fmt.Sprint(w.Events[2:]) {
		t.Errorf("OR(a, b) witness = %v, want a@3", witness)
	}
}

// TestSeqTimesConsumesEveryOccurrence pins the documented TIMES behaviour
// under SEQ: the next part must follow the last counted occurrence.
func TestSeqTimesConsumesEveryOccurrence(t *testing.T) {
	p := mustPlan(t, SeqOf(TimesOf(E("a"), 1, 0), E("c")))
	w := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("c", 2), event.New("a", 3),
	}}
	if p.DetectWindow(w) {
		t.Error("c before the last a: want not detected")
	}
	w.Events = []event.Event{event.New("a", 1), event.New("a", 2), event.New("c", 3)}
	if ok, witness := p.EvalWindow(w); !ok || len(witness) != 3 {
		t.Errorf("EvalWindow = %t %v, want both a's then c", ok, witness)
	}
}

func TestPlanConstantFolding(t *testing.T) {
	cases := []struct {
		expr Expr
		want int8
	}{
		// A released existence bit cannot witness two occurrences.
		{TimesOf(E("a"), 2, 0), -1},
		// ...so its negation is constantly detected.
		{NegOf(TimesOf(E("a"), 2, 0)), 1},
		// A constant-false conjunct sinks the conjunction.
		{AndOf(E("a"), TimesOf(E("b"), 3, 3)), -1},
		// A constant-true disjunct lifts the disjunction.
		{OrOf(E("a"), NegOf(TimesOf(E("b"), 2, 0))), 1},
		{E("a"), 0},
	}
	for _, c := range cases {
		p := mustPlan(t, c.expr)
		if p.constVal != c.want {
			t.Errorf("%s: constVal = %d, want %d", c.expr, p.constVal, c.want)
		}
		for _, present := range []map[event.Type]bool{
			{"a": true, "b": true},
			{"a": false, "b": false},
		} {
			if got, want := p.EvalIndicators(present), EvalIndicators(c.expr, present); got != want {
				t.Errorf("%s over %v: plan %t, interpreter %t", c.expr, present, got, want)
			}
		}
	}
}

func TestPlanRequiredTypes(t *testing.T) {
	cases := []struct {
		expr Expr
		want []event.Type
	}{
		{SeqTypes("a", "b", "c"), []event.Type{"a", "b", "c"}},
		{AndOf(E("a"), OrOf(E("b"), E("c"))), []event.Type{"a"}},
		{OrOf(SeqTypes("a", "b"), SeqTypes("a", "c")), []event.Type{"a"}},
		{NegOf(E("a")), nil},
		{AndOf(E("a"), NegOf(E("b"))), []event.Type{"a"}},
	}
	for _, c := range cases {
		p := mustPlan(t, c.expr)
		got := p.RequiredTypes()
		if len(got) != len(c.want) {
			t.Errorf("%s: required = %v, want %v", c.expr, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: required = %v, want %v", c.expr, got, c.want)
			}
		}
	}
}

// TestPlanConjunctiveNoProgram pins the fast path: pure SEQ/AND-over-atom
// patterns answer from the required-type check alone.
func TestPlanConjunctiveNoProgram(t *testing.T) {
	p := mustPlan(t, SeqOf(E("a"), AndOf(E("b"), E("c"))))
	if p.ind != nil {
		t.Fatalf("indicator program = %+v; want conjunctive fast path", p.ind)
	}
	if !p.EvalIndicators(map[event.Type]bool{"a": true, "b": true, "c": true}) {
		t.Error("all present: want detected")
	}
	if p.EvalIndicators(map[event.Type]bool{"a": true, "b": true, "c": false}) {
		t.Error("c absent: want not detected")
	}
}

// TestPlanWindowPruning asserts that required-type pruning is what answers
// windows missing a required type — and that it answers them correctly.
func TestPlanWindowPruning(t *testing.T) {
	p := mustPlan(t, SeqTypes("x", "y"))
	w := stream.Window{Start: 0, End: 10}
	for i := 0; i < 8; i++ {
		w.Events = append(w.Events, event.New("a", event.Timestamp(i)))
	}
	if ok, _ := p.EvalWindow(w); ok {
		t.Error("window without required types: want not detected")
	}
	// The same window carrying TypeCounts prunes via the O(1) path.
	w.TypeCounts = stream.TypeCounts{{Type: "a", N: 8}}
	if ok, _ := p.EvalWindow(w); ok {
		t.Error("pruned window: want not detected")
	}
}

// TestPlanConcurrentUse exercises one shared plan from many goroutines, as
// the runtime's shards share each epoch's compiled plans; run with -race.
func TestPlanConcurrentUse(t *testing.T) {
	p := mustPlan(t, SeqTypes("a", "b"))
	w := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("x", 2), event.New("b", 3),
	}}
	present := map[event.Type]bool{"a": true, "b": true}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				if !p.EvalIndicators(present) {
					t.Error("indicator answer changed under concurrency")
					return
				}
				if ok, _ := p.EvalWindow(w); !ok {
					t.Error("window answer changed under concurrency")
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(Query{Name: "", Pattern: E("a"), Window: 10}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := Compile(Query{Name: "q", Pattern: SeqOf(), Window: 10}); err == nil {
		t.Error("empty SEQ: want error")
	}
}

// TestNFAFreeListRecycles pins the run free-list: repeated feeding through
// window expiry must reach a steady state where runs are recycled, and
// detections must be identical to a fresh matcher's.
func TestNFAFreeListRecycles(t *testing.T) {
	seq := SeqTypes("a", "b", "c")
	evs := make([]event.Event, 0, 600)
	rng := rand.New(rand.NewSource(11))
	types := []event.Type{"a", "b", "c", "x"}
	for i := 0; i < 600; i++ {
		evs = append(evs, event.New(types[rng.Intn(len(types))], event.Timestamp(i)))
	}
	recycled, _ := CompileSeq("q", seq, 20)
	got := recycled.FeedAll(evs)
	fresh, _ := CompileSeq("q", seq, 20)
	want := fresh.FeedAll(evs)
	if len(got) != len(want) {
		t.Fatalf("free-list matcher found %d instances, fresh %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("instance %d: %v != %v", i, got[i], want[i])
		}
	}
	if len(recycled.free) == 0 {
		t.Error("window expiry recycled no runs into the free list")
	}
	// Witnesses must not alias recycled run buffers: mutate the matcher
	// further and re-check an early detection.
	snapshot := fmt.Sprint(got[0])
	recycled.FeedAll(evs)
	if fmt.Sprint(got[0]) != snapshot {
		t.Error("detection witness was overwritten by later matching")
	}
}

// TestNFAFreeListMaxRuns pins eviction recycling and the dropped counter
// under a tight maxRuns bound.
func TestNFAFreeListMaxRuns(t *testing.T) {
	m, _ := CompileSeq("q", SeqTypes("a", "b"), 0, WithMaxRuns(4))
	for i := 0; i < 100; i++ {
		m.Feed(event.New("a", event.Timestamp(i)))
	}
	if m.ActiveRuns() != 4 {
		t.Errorf("ActiveRuns = %d, want 4", m.ActiveRuns())
	}
	if m.Dropped() != 96 {
		t.Errorf("Dropped = %d, want 96", m.Dropped())
	}
	if len(m.free) == 0 {
		t.Error("eviction recycled no runs")
	}
	m.Reset()
	if m.ActiveRuns() != 0 || m.Dropped() != 0 {
		t.Errorf("after Reset: runs=%d dropped=%d", m.ActiveRuns(), m.Dropped())
	}
}

// TestPlanDroppedSurfaced checks that a plan's pooled NFA evictions
// aggregate into Plan.Dropped via release.
func TestPlanDroppedSurfaced(t *testing.T) {
	p, err := Compile(Query{Name: "q", Pattern: SeqTypes("a", "b"), Window: 100}, WithMaxRuns(2))
	if err != nil {
		t.Fatal(err)
	}
	w := stream.Window{Start: 0, End: 100}
	for i := 0; i < 50; i++ {
		w.Events = append(w.Events, event.New("a", event.Timestamp(i)))
	}
	w.Events = append(w.Events, event.New("b", 60))
	if ok := p.DetectWindow(w); !ok {
		t.Error("a then b present: want detected")
	}
	if p.Dropped() == 0 {
		t.Error("maxRuns evictions not surfaced through Plan.Dropped")
	}
}

// TestEngineUsesPlans pins the plan-backed engine registry: registration
// compiles, evaluation answers, and RunsDropped aggregates.
func TestEngineUsesPlans(t *testing.T) {
	g := NewEngine()
	if err := g.Register(Query{Name: "q1", Pattern: SeqTypes("a", "b"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Query{Name: "q0", Pattern: NegOf(E("c")), Window: 10}); err != nil {
		t.Fatal(err)
	}
	w := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("b", 2),
	}}
	ds := g.EvaluateWindow(w)
	if len(ds) != 2 || ds[0].Query != "q0" || ds[1].Query != "q1" {
		t.Fatalf("detections = %+v", ds)
	}
	if !ds[0].Detected || !ds[1].Detected {
		t.Errorf("want both detected, got %+v", ds)
	}
	if len(ds[1].Witness.Events) != 2 {
		t.Errorf("seq witness = %v", ds[1].Witness)
	}
	g.Unregister("q1")
	if ds := g.EvaluateWindow(w); len(ds) != 1 {
		t.Fatalf("after unregister: %+v", ds)
	}
}
