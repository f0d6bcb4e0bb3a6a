package cep

import (
	"testing"

	"patterndp/internal/event"
)

func pev(t event.Type) event.Event { return event.New(t, 1) }

func TestAttrEq(t *testing.T) {
	p := AttrEq("k", event.Int(3))
	if !p(pev("a").WithAttr("k", event.Int(3))) {
		t.Error("equal attr rejected")
	}
	if p(pev("a").WithAttr("k", event.Int(4))) {
		t.Error("unequal attr matched")
	}
	if p(pev("a")) {
		t.Error("missing attr matched")
	}
	if p(pev("a").WithAttr("k", event.Float(3))) {
		t.Error("different kind matched")
	}
}

func TestAttrGTLT(t *testing.T) {
	gt := AttrGT("speed", 10)
	lt := AttrLT("speed", 10)
	fast := pev("a").WithAttr("speed", event.Float(20))
	slow := pev("a").WithAttr("speed", event.Int(5))
	edge := pev("a").WithAttr("speed", event.Float(10))
	if !gt(fast) || gt(slow) || gt(edge) {
		t.Error("AttrGT broken")
	}
	if lt(fast) || !lt(slow) || lt(edge) {
		t.Error("AttrLT broken")
	}
	str := pev("a").WithAttr("speed", event.String("fast"))
	if gt(str) || lt(str) {
		t.Error("non-numeric attr matched numeric predicate")
	}
	if gt(pev("a")) || lt(pev("a")) {
		t.Error("missing attr matched")
	}
}

func TestAttrBetween(t *testing.T) {
	p := AttrBetween("v", 1, 3)
	cases := map[float64]bool{0.5: false, 1: true, 2: true, 3: true, 3.5: false}
	for v, want := range cases {
		got := p(pev("a").WithAttr("v", event.Float(v)))
		if got != want {
			t.Errorf("Between(%v) = %t, want %t", v, got, want)
		}
	}
	if p(pev("a")) {
		t.Error("missing attr matched")
	}
}

func TestSourceIs(t *testing.T) {
	p := SourceIs("taxi-1")
	if !p(pev("a").WithSource("taxi-1")) || p(pev("a").WithSource("taxi-2")) {
		t.Error("SourceIs broken")
	}
}

func TestCombinators(t *testing.T) {
	hasK := AttrEq("k", event.Int(1))
	fromS := SourceIs("s")
	both := AllOf(hasK, fromS)
	either := AnyOf(hasK, fromS)
	neither := Not(either)

	e1 := pev("a").WithAttr("k", event.Int(1)).WithSource("s")
	e2 := pev("a").WithAttr("k", event.Int(1))
	e3 := pev("a")

	if !both(e1) || both(e2) {
		t.Error("AllOf broken")
	}
	if !either(e1) || !either(e2) || either(e3) {
		t.Error("AnyOf broken")
	}
	if neither(e1) || !neither(e3) {
		t.Error("Not broken")
	}
}

func TestPredicateInSeqEvaluation(t *testing.T) {
	// SEQ(fix{speed>10}, fix{speed<2}): speeding then stopped.
	expr := SeqOf(
		EWhere("fix", AttrGT("speed", 10)),
		EWhere("fix", AttrLT("speed", 2)),
	)
	w := win(
		event.New("fix", 1).WithAttr("speed", event.Float(30)),
		event.New("fix", 2).WithAttr("speed", event.Float(1)),
	)
	if ok, _ := evalWindow(expr, w); !ok {
		t.Error("predicate sequence should match")
	}
	w2 := win(
		event.New("fix", 1).WithAttr("speed", event.Float(1)),
		event.New("fix", 2).WithAttr("speed", event.Float(30)),
	)
	if ok, _ := evalWindow(expr, w2); ok {
		t.Error("reversed predicate sequence matched")
	}
}
