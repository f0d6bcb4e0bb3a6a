package cep

import (
	"testing"
)

// FuzzParse drives the query parser with arbitrary input; it must never
// panic, and any accepted input must produce an expression whose rendered
// form re-parses to the same rendering.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SEQ(a, b) WITHIN 10",
		"AND(a, OR(b, NEG(c)))",
		"TIMES(retry, 3)",
		"TIMES(SEQ(a, b), 1, 2)",
		"cell-3-7",
		"seq(a,and(b,c))",
		"SEQ(",
		")))",
		"WITHIN",
		"a WITHIN 99999999",
		"TIMES(a, 0)",
		"@#$%",
		"SEQ(a, b) WITHIN 10 trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		expr, window, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if expr == nil {
			t.Fatal("nil expression without error")
		}
		if window < 0 {
			t.Fatalf("negative window %d", window)
		}
		rendered := expr.String()
		back, _, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered form %q does not re-parse: %v", rendered, err)
		}
		if back.String() != rendered {
			t.Fatalf("rendering not a fixed point: %q -> %q", rendered, back.String())
		}
	})
}

// FuzzNFAFeed drives the streaming matcher with arbitrary event sequences;
// it must never panic and must agree with the batch evaluator on presence.
func FuzzNFAFeed(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{2, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		w := randomWindow(raw)
		seq := SeqTypes("a", "b")
		m, err := CompileSeq("q", seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		nfaOK := len(m.FeedAll(w.Events)) > 0
		evalOK, _ := evalWindow(seq, w)
		if nfaOK != evalOK {
			t.Fatalf("nfa=%t evaluator=%t on %v", nfaOK, evalOK, w.Events)
		}
	})
}
