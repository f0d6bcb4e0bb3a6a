package cep

import (
	"strings"
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

func win(evs ...event.Event) stream.Window {
	if len(evs) == 0 {
		return stream.Window{Start: 0, End: 100}
	}
	return stream.Window{Start: 0, End: evs[len(evs)-1].Time + 1, Events: evs}
}

func TestAtomMatches(t *testing.T) {
	a := E("go")
	if !a.Matches(event.New("go", 1)) || a.Matches(event.New("stop", 1)) {
		t.Error("atom type matching broken")
	}
	p := EWhere("go", func(e event.Event) bool {
		v, ok := e.Attr("speed")
		if !ok {
			return false
		}
		f, _ := v.AsFloat()
		return f > 10
	})
	fast := event.New("go", 1).WithAttr("speed", Float(30))
	slow := event.New("go", 2).WithAttr("speed", Float(3))
	if !p.Matches(fast) || p.Matches(slow) {
		t.Error("predicate matching broken")
	}
}

// Float is re-exported for test brevity.
func Float(f float64) event.Value { return event.Float(f) }

func TestExprTypesDedup(t *testing.T) {
	e := SeqOf(E("a"), AndOf(E("b"), E("a")), OrOf(E("c")))
	got := e.Types()
	want := []event.Type{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("Types = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Types = %v, want %v", got, want)
		}
	}
}

func TestExprString(t *testing.T) {
	e := SeqOf(E("a"), NegOf(AndOf(E("b"), E("c"))))
	s := e.String()
	if !strings.Contains(s, "SEQ(") || !strings.Contains(s, "NEG(AND(b, c))") {
		t.Errorf("String = %q", s)
	}
	al := &Atom{Type: "x", Alias: "first"}
	if al.String() != "x AS first" {
		t.Errorf("alias String = %q", al.String())
	}
}

func TestValidate(t *testing.T) {
	bad := []Query{
		{Name: "", Pattern: E("a"), Window: 1},
		{Name: "q", Pattern: nil, Window: 1},
		{Name: "q", Pattern: E("a"), Window: 0},
		{Name: "q", Pattern: SeqOf(), Window: 1},
		{Name: "q", Pattern: SeqOf(nil), Window: 1},
		{Name: "q", Pattern: NegOf(nil), Window: 1},
		{Name: "q", Pattern: E(""), Window: 1},
		{Name: "q", Pattern: AndOf(), Window: 1},
		{Name: "q", Pattern: OrOf(), Window: 1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := Query{Name: "q", Pattern: SeqTypes("a", "b"), Window: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestEvalWindowAtomSeq(t *testing.T) {
	w := win(event.New("a", 1), event.New("x", 2), event.New("b", 3))
	if ok, _ := evalWindow(E("a"), w); !ok {
		t.Error("atom should match")
	}
	if ok, _ := evalWindow(E("z"), w); ok {
		t.Error("absent atom matched")
	}
	ok, witness := evalWindow(SeqTypes("a", "b"), w)
	if !ok || len(witness) != 2 || witness[0].Type != "a" || witness[1].Type != "b" {
		t.Errorf("seq witness = %v", witness)
	}
	// Order matters: b then a must fail.
	if ok, _ := evalWindow(SeqTypes("b", "a"), w); ok {
		t.Error("reversed sequence matched")
	}
}

func TestEvalWindowSeqStrictOrder(t *testing.T) {
	// Same timestamp does not satisfy "strictly after".
	w := win(event.New("a", 5), event.New("b", 5))
	if ok, _ := evalWindow(SeqTypes("a", "b"), w); ok {
		t.Error("simultaneous events satisfied a SEQ")
	}
}

func TestEvalWindowSeqBacktracking(t *testing.T) {
	// a@1 b@2 a@3 c@4 — SEQ(a, b, c)? witness must be a@1 b@2 c@4,
	// requiring the evaluator to not greedily bind the last a.
	w := win(event.New("a", 1), event.New("b", 2), event.New("a", 3), event.New("c", 4))
	ok, witness := evalWindow(SeqTypes("a", "b", "c"), w)
	if !ok {
		t.Fatal("should match")
	}
	if witness[0].Time != 1 || witness[1].Time != 2 || witness[2].Time != 4 {
		t.Errorf("witness times = %v", witness)
	}
	// SEQ(b, a): b@2 then a@3 — requires trying later a candidates.
	ok, _ = evalWindow(SeqTypes("b", "a"), w)
	if !ok {
		t.Error("SEQ(b,a) should match via a@3")
	}
}

func TestEvalWindowAndOrNeg(t *testing.T) {
	w := win(event.New("a", 1), event.New("b", 2))
	if ok, _ := evalWindow(AndOf(E("b"), E("a")), w); !ok {
		t.Error("AND should be order-insensitive")
	}
	if ok, _ := evalWindow(AndOf(E("a"), E("z")), w); ok {
		t.Error("AND with absent part matched")
	}
	if ok, _ := evalWindow(OrOf(E("z"), E("b")), w); !ok {
		t.Error("OR should match via b")
	}
	if ok, _ := evalWindow(OrOf(E("z"), E("y")), w); ok {
		t.Error("OR with no parts present matched")
	}
	if ok, _ := evalWindow(NegOf(E("z")), w); !ok {
		t.Error("NEG of absent should match")
	}
	if ok, _ := evalWindow(NegOf(E("a")), w); ok {
		t.Error("NEG of present matched")
	}
}

func TestEvalWindowCompositeInsideSeq(t *testing.T) {
	// SEQ(AND(a,b), c): both a and b must occur before c... (the composite
	// head's witness end bounds the tail).
	w := win(event.New("a", 1), event.New("b", 2), event.New("c", 3))
	if ok, _ := evalWindow(SeqOf(AndOf(E("a"), E("b")), E("c")), w); !ok {
		t.Error("SEQ(AND(a,b), c) should match")
	}
	w2 := win(event.New("a", 1), event.New("c", 2), event.New("b", 3))
	if ok, _ := evalWindow(SeqOf(AndOf(E("a"), E("b")), E("c")), w2); ok {
		t.Error("c occurs before AND completes; should not match")
	}
}

func TestEvalIndicators(t *testing.T) {
	present := map[event.Type]bool{"a": true, "b": false, "c": true}
	if !EvalIndicators(E("a"), present) || EvalIndicators(E("b"), present) {
		t.Error("atom indicators broken")
	}
	if EvalIndicators(SeqTypes("a", "b"), present) {
		t.Error("seq with missing element matched")
	}
	if !EvalIndicators(SeqTypes("a", "c"), present) {
		t.Error("seq degrades to all-present over indicators")
	}
	if !EvalIndicators(OrOf(E("b"), E("c")), present) {
		t.Error("or over indicators broken")
	}
	if !EvalIndicators(NegOf(E("b")), present) {
		t.Error("neg over indicators broken")
	}
	if !EvalIndicators(AndOf(E("a"), E("c")), present) {
		t.Error("and over indicators broken")
	}
}

func TestCompileSeqErrors(t *testing.T) {
	if _, err := CompileSeq("q", nil, 0); err == nil {
		t.Error("nil seq accepted")
	}
	if _, err := CompileSeq("q", SeqOf(), 0); err == nil {
		t.Error("empty seq accepted")
	}
	if _, err := CompileSeq("q", SeqOf(AndOf(E("a"), E("b"))), 0); err == nil {
		t.Error("composite part accepted")
	}
	if _, err := CompileSeq("q", SeqTypes("a"), -1); err == nil {
		t.Error("negative window accepted")
	}
}

func TestNFASingleAtom(t *testing.T) {
	m, err := CompileSeq("q", SeqTypes("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.FeedAll([]event.Event{event.New("a", 1), event.New("b", 2), event.New("a", 3)})
	if len(got) != 2 {
		t.Errorf("detections = %d, want 2", len(got))
	}
}

func TestNFASkipTillAnyMatch(t *testing.T) {
	m, err := CompileSeq("q", SeqTypes("a", "b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// a@1 a@2 b@3 → two matches: (a1,b3) and (a2,b3).
	got := m.FeedAll([]event.Event{event.New("a", 1), event.New("a", 2), event.New("b", 3)})
	if len(got) != 2 {
		t.Fatalf("detections = %d, want 2 (skip-till-any-match)", len(got))
	}
	for _, p := range got {
		if p.Name != "q" || p.Len() != 2 {
			t.Errorf("bad detection %v", p)
		}
	}
}

func TestNFAWindowExpiry(t *testing.T) {
	m, err := CompileSeq("q", SeqTypes("a", "b"), 5)
	if err != nil {
		t.Fatal(err)
	}
	got := m.FeedAll([]event.Event{event.New("a", 1), event.New("b", 10)})
	if len(got) != 0 {
		t.Errorf("expired run still matched: %v", got)
	}
	got = m.FeedAll([]event.Event{event.New("a", 20), event.New("b", 24)})
	if len(got) != 1 {
		t.Errorf("in-window match missed: %v", got)
	}
}

func TestNFAStrictTemporalOrder(t *testing.T) {
	m, _ := CompileSeq("q", SeqTypes("a", "b"), 0)
	got := m.FeedAll([]event.Event{event.New("a", 1), event.New("b", 1)})
	if len(got) != 0 {
		t.Error("same-timestamp pair matched a SEQ")
	}
}

func TestNFAMaxRuns(t *testing.T) {
	m, _ := CompileSeq("q", SeqTypes("a", "b"), 0, WithMaxRuns(2))
	for i := 0; i < 10; i++ {
		m.Feed(event.New("a", event.Timestamp(i)))
	}
	if m.ActiveRuns() != 2 {
		t.Errorf("ActiveRuns = %d, want 2", m.ActiveRuns())
	}
	if m.Dropped() != 8 {
		t.Errorf("Dropped = %d, want 8", m.Dropped())
	}
	got := m.Feed(event.New("b", 100))
	if len(got) != 2 {
		t.Errorf("bounded matcher detections = %d, want 2", len(got))
	}
}

func TestNFAReset(t *testing.T) {
	m, _ := CompileSeq("q", SeqTypes("a", "b"), 0)
	m.Feed(event.New("a", 1))
	m.Reset()
	if m.ActiveRuns() != 0 {
		t.Error("Reset left runs")
	}
	if got := m.Feed(event.New("b", 2)); len(got) != 0 {
		t.Error("match completed across Reset")
	}
}

func TestNFAAccessors(t *testing.T) {
	m, _ := CompileSeq("q", SeqTypes("a", "b", "c"), 7)
	if m.Name() != "q" || m.Len() != 3 {
		t.Error("accessors broken")
	}
}

func TestEngineRegisterQuery(t *testing.T) {
	g := NewEngine()
	if err := g.Register(Query{Name: "q1", Pattern: E("a"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Query{Name: "", Pattern: E("a"), Window: 10}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, ok := g.Query("q1"); !ok {
		t.Error("q1 not found")
	}
	if _, ok := g.Query("zzz"); ok {
		t.Error("phantom query found")
	}
	g.Register(Query{Name: "q0", Pattern: E("b"), Window: 10})
	qs := g.Queries()
	if len(qs) != 2 || qs[0].Name != "q0" {
		t.Errorf("Queries = %v", qs)
	}
	g.Unregister("q0")
	if len(g.Queries()) != 1 {
		t.Error("Unregister failed")
	}
	g.Unregister("never-registered") // must not panic
}

func TestEngineEvaluateWindow(t *testing.T) {
	g := NewEngine()
	g.Register(Query{Name: "hit", Pattern: SeqTypes("a", "b"), Window: 10})
	g.Register(Query{Name: "miss", Pattern: E("z"), Window: 10})
	ds := g.EvaluateWindow(win(event.New("a", 1), event.New("b", 2)))
	if len(ds) != 2 {
		t.Fatalf("detections = %d", len(ds))
	}
	if !ds[0].Detected || ds[0].Query != "hit" {
		t.Errorf("hit not detected: %+v", ds[0])
	}
	if ds[0].Witness.Len() != 2 {
		t.Errorf("witness = %v", ds[0].Witness)
	}
	if ds[1].Detected {
		t.Errorf("miss detected: %+v", ds[1])
	}
}

func TestEngineRun(t *testing.T) {
	g := NewEngine()
	g.Register(Query{Name: "q", Pattern: SeqTypes("a", "b"), Window: 10})
	done := make(chan struct{})
	defer close(done)
	in := stream.FromSlice([]event.Event{
		event.New("a", 1), event.New("b", 2), // window [0,10): detected
		event.New("a", 11), // window [10,20): not detected
	})
	ds := stream.Collect(g.Run(done, in, 10))
	if len(ds) != 2 {
		t.Fatalf("detections = %d, want 2", len(ds))
	}
	if !ds[0].Detected || ds[1].Detected {
		t.Errorf("detection flags = %v %v", ds[0].Detected, ds[1].Detected)
	}
}

func TestDetectSeq(t *testing.T) {
	evs := []event.Event{event.New("a", 1), event.New("b", 3), event.New("a", 4), event.New("b", 5)}
	got, err := DetectSeq("q", SeqTypes("a", "b"), 0, evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // (1,3) (1,5) (4,5)
		t.Errorf("instances = %d, want 3", len(got))
	}
	if _, err := DetectSeq("q", SeqOf(OrOf(E("a"))), 0, evs); err == nil {
		t.Error("composite DetectSeq accepted")
	}
}

func TestNFAvsWindowEvaluatorAgreement(t *testing.T) {
	// Property: for a tumbling window, the NFA (reset per window) detects at
	// least one instance iff the window evaluator reports the seq present.
	evsets := [][]event.Event{
		{event.New("a", 1), event.New("b", 2), event.New("c", 3)},
		{event.New("b", 1), event.New("a", 2), event.New("c", 3)},
		{event.New("a", 1), event.New("c", 2)},
		{event.New("c", 1), event.New("b", 2), event.New("a", 3)},
		{event.New("a", 1), event.New("a", 2), event.New("b", 3), event.New("c", 9)},
	}
	seq := SeqTypes("a", "b", "c")
	for i, evs := range evsets {
		w := win(evs...)
		evalOK, _ := evalWindow(seq, w)
		m, _ := CompileSeq("q", seq, 0)
		nfaOK := len(m.FeedAll(evs)) > 0
		if evalOK != nfaOK {
			t.Errorf("case %d: evaluator=%t nfa=%t", i, evalOK, nfaOK)
		}
	}
}
