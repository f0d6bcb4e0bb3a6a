package cep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// randomWindow builds a window from raw bytes: each byte places one event of
// a type from a 4-letter alphabet at an increasing timestamp.
func randomWindow(raw []byte) stream.Window {
	w := stream.Window{Start: 0, End: event.Timestamp(len(raw) + 1)}
	for i, b := range raw {
		t := event.Type(rune('a' + int(b)%4))
		w.Events = append(w.Events, event.New(t, event.Timestamp(i)))
	}
	return w
}

func TestPropertySeqIndicatorsIsConjunction(t *testing.T) {
	// Over indicators, SEQ reduces to conjunction of presences.
	f := func(pa, pb, pc bool) bool {
		present := map[event.Type]bool{"a": pa, "b": pb, "c": pc}
		got := EvalIndicators(SeqTypes("a", "b", "c"), present)
		return got == (pa && pb && pc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNegIsComplement(t *testing.T) {
	f := func(raw []byte) bool {
		w := randomWindow(raw)
		e := SeqTypes("a", "b")
		pos, _ := evalWindow(e, w)
		neg, _ := evalWindow(NegOf(e), w)
		return pos != neg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNFAAgreesWithEvaluator(t *testing.T) {
	// For unbounded windows, the streaming NFA finds a SEQ instance iff the
	// batch evaluator reports the sequence present.
	f := func(raw []byte) bool {
		w := randomWindow(raw)
		seq := SeqTypes("a", "b", "c")
		evalOK, _ := evalWindow(seq, w)
		m, err := CompileSeq("q", seq, 0)
		if err != nil {
			return false
		}
		nfaOK := len(m.FeedAll(w.Events)) > 0
		return evalOK == nfaOK
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyWitnessIsOrderedAndInWindow(t *testing.T) {
	f := func(raw []byte) bool {
		w := randomWindow(raw)
		ok, witness := evalWindow(SeqTypes("a", "b"), w)
		if !ok {
			return len(witness) == 0
		}
		if len(witness) != 2 {
			return false
		}
		if !witness[0].Before(witness[1]) {
			return false
		}
		for _, e := range witness {
			if e.Time < w.Start || e.Time >= w.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyOrMonotone(t *testing.T) {
	// Adding a disjunct never turns a match into a non-match.
	f := func(raw []byte) bool {
		w := randomWindow(raw)
		base, _ := evalWindow(OrOf(E("a"), E("b")), w)
		wider, _ := evalWindow(OrOf(E("a"), E("b"), E("c")), w)
		return !base || wider
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyParseStringRoundTrip(t *testing.T) {
	// Rendering a random expression tree and re-parsing it preserves the
	// rendered form (String is a fixed point of Parse ∘ String).
	f := func(depth uint8, shape uint32) bool {
		e := randomExpr(rand.New(rand.NewSource(int64(shape))), int(depth%3)+1)
		s := e.String()
		back, _, err := Parse(s)
		if err != nil {
			return false
		}
		return back.String() == s
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randomExpr(rng *rand.Rand, depth int) Expr {
	types := []event.Type{"a", "b", "c", "d"}
	if depth <= 0 {
		return E(types[rng.Intn(len(types))])
	}
	switch rng.Intn(5) {
	case 0:
		return SeqOf(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return AndOf(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return OrOf(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 3:
		return NegOf(randomExpr(rng, depth-1))
	default:
		return E(types[rng.Intn(len(types))])
	}
}
