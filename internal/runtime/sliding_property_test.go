package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// identityMechanism releases the true indicators unperturbed, so serving
// equivalence tests are deterministic: a released answer depends only on
// which events reached which window. (No privacy — test-only.)
type identityMechanism struct{}

func (identityMechanism) Name() string             { return "identity" }
func (identityMechanism) TotalEpsilon() dp.Epsilon { return 0 }
func (identityMechanism) Run(_ *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	out := make([]map[event.Type]bool, len(wins))
	for i, w := range wins {
		m := make(map[event.Type]bool, len(w.Present))
		for t, v := range w.Present {
			m[t] = v
		}
		out[i] = m
	}
	return out
}

// randomQuerySet builds 1-4 random valid queries over a small type alphabet.
func randomQuerySet(rng *rand.Rand, width event.Timestamp) []cep.Query {
	types := []event.Type{"a", "b", "c", "d"}
	leaf := func() cep.Expr { return cep.E(types[rng.Intn(len(types))]) }
	var node func(depth int) cep.Expr
	node = func(depth int) cep.Expr {
		if depth <= 0 {
			return leaf()
		}
		switch rng.Intn(5) {
		case 0:
			return cep.SeqOf(node(depth-1), node(depth-1))
		case 1:
			return cep.AndOf(node(depth-1), node(depth-1))
		case 2:
			return cep.OrOf(node(depth-1), node(depth-1))
		case 3:
			return cep.NegOf(node(depth - 1))
		default:
			return leaf()
		}
	}
	n := rng.Intn(4) + 1
	qs := make([]cep.Query, 0, n)
	for i := 0; i < n; i++ {
		q := cep.Query{Name: fmt.Sprintf("q%d", i), Pattern: node(rng.Intn(3)), Window: width}
		if q.Validate() == nil {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		qs = append(qs, cep.Query{Name: "q0", Pattern: leaf(), Window: width})
	}
	return qs
}

// expectedWindow is one window of the brute-force serving model.
type expectedWindow struct {
	start, end event.Timestamp
	present    map[event.Type]bool
}

// slidingModel replays one stream's events through the pane acceptance rules
// (watermark at slide granularity, like the pane windower) and then builds
// every served window by brute-force scanning of the accepted events.
func slidingModel(evs []event.Event, width, slide event.Timestamp, policy LatenessPolicy, lateness event.Timestamp) []expectedWindow {
	var accepted []event.Event
	started := false
	var nextStart, maxTime event.Timestamp
	for _, e := range evs {
		if !started {
			started = true
			nextStart = stream.AlignDown(e.Time, slide)
			maxTime = e.Time
		}
		if e.Time < nextStart {
			continue // late
		}
		accepted = append(accepted, e)
		if e.Time > maxTime {
			maxTime = e.Time
		}
		watermark := maxTime
		if policy == ReorderBuffer {
			watermark = maxTime - lateness
		}
		for nextStart+slide <= watermark {
			nextStart += slide
		}
	}
	if len(accepted) == 0 {
		return nil
	}
	first := accepted[0].Time
	var out []expectedWindow
	for s := stream.AlignDown(first-width+slide, slide); s <= stream.AlignDown(maxTime, slide); s += slide {
		w := expectedWindow{start: s, end: s + width, present: map[event.Type]bool{}}
		for _, e := range accepted {
			if e.Time >= s && e.Time < s+width {
				w.present[e.Type] = true
			}
		}
		out = append(out, w)
	}
	return out
}

// TestPropertySlidingServingMatchesBruteForce is the end-to-end equivalence
// property test (run under -race in CI): for randomized widths, slides,
// lateness policies, and query sets, the pane-assembled sliding runtime must
// release exactly the answers of a brute-force per-window evaluation of the
// accepted events.
func TestPropertySlidingServingMatchesBruteForce(t *testing.T) {
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		slide := event.Timestamp(rng.Intn(4) + 1)
		overlap := rng.Intn(7) + 2
		width := slide * event.Timestamp(overlap)
		policy, lateness := DropLate, event.Timestamp(0)
		if rng.Intn(2) == 1 {
			policy = ReorderBuffer
			lateness = event.Timestamp(rng.Intn(2 * int(width)))
		}
		jitter := 0
		if rng.Intn(2) == 1 {
			jitter = rng.Intn(int(width))
		}
		queries := randomQuerySet(rng, width)
		types := []event.Type{"a", "b", "c", "d"}
		const streams = 2
		perStream := make(map[string][]event.Event)
		for s := 0; s < streams; s++ {
			key := fmt.Sprintf("stream-%d", s)
			now := event.Timestamp(rng.Intn(40) - 20)
			for i, n := 0, rng.Intn(150)+10; i < n; i++ {
				now += event.Timestamp(rng.Intn(3))
				at := now - event.Timestamp(rng.Intn(jitter+1))
				perStream[key] = append(perStream[key], event.New(types[rng.Intn(len(types))], at).WithSource(key))
			}
		}

		run := func() map[string][]Answer {
			rt, err := New(Config{
				Shards:          2,
				WindowWidth:     width,
				Slide:           slide,
				Lateness:        policy,
				AllowedLateness: lateness,
				Mechanism:       func(int) (core.Mechanism, error) { return identityMechanism{}, nil },
				Private:         []core.PatternType{pt},
				Targets:         queries,
				Seed:            int64(trial),
			})
			if err != nil {
				t.Fatal(err)
			}
			got, wait := collectAnswers(t, rt)
			// Sequential ingest keeps per-stream acceptance deterministic.
			for s := 0; s < streams; s++ {
				for _, e := range perStream[fmt.Sprintf("stream-%d", s)] {
					if err := rt.Ingest(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			wait()
			return got
		}
		got := run()

		plans := make([]*cep.Plan, len(queries))
		for i, q := range queries {
			plans[i] = cep.MustCompile(q)
		}
		for s := 0; s < streams; s++ {
			key := fmt.Sprintf("stream-%d", s)
			want := slidingModel(perStream[key], width, slide, policy, lateness)
			for qi, q := range queries {
				answers := got[key+"/"+q.Name]
				if len(answers) != len(want) {
					t.Fatalf("trial %d %s/%s: %d answers, want %d windows (width %d slide %d %v/%d)",
						trial, key, q.Name, len(answers), len(want), width, slide, policy, lateness)
				}
				for i, a := range answers {
					ew := want[i]
					if a.WindowIndex != i || a.Window.Start != ew.start || a.Window.End != ew.end {
						t.Fatalf("trial %d %s/%s answer %d: window %d [%d,%d), want %d [%d,%d)",
							trial, key, q.Name, i, a.WindowIndex, a.Window.Start, a.Window.End, i, ew.start, ew.end)
					}
					if a.Window.Events != nil || a.Window.TypeCounts != nil {
						t.Fatalf("trial %d %s/%s answer %d: sliding answers must carry interval-only windows",
							trial, key, q.Name, i)
					}
					if wantDet := plans[qi].EvalIndicators(ew.present); a.Detected != wantDet {
						t.Fatalf("trial %d %s/%s window %d [%d,%d): detected %v, brute force %v",
							trial, key, q.Name, i, ew.start, ew.end, a.Detected, wantDet)
					}
				}
			}
		}
	}
}

// TestSlidingTumblingBitForBit pins the compatibility guarantee: Slide unset
// and Slide == WindowWidth take the tumbling code path and release
// bit-for-bit identical answers (same windows, same noise draws) under a
// real mechanism and fixed seed.
func TestSlidingTumblingBitForBit(t *testing.T) {
	run := func(slide event.Timestamp) map[string][]Answer {
		cfg := testConfig(t, 2)
		cfg.Slide = slide
		// A small budget makes noise flips likely, so identical answers
		// really pin identical randomness, not just identical truth.
		pt := cfg.Private[0]
		cfg.Mechanism = func(int) (core.Mechanism, error) { return core.NewUniformPPM(0.5, pt) }
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, wait := collectAnswers(t, rt)
		for s := 0; s < 3; s++ {
			for _, e := range streamEvents(fmt.Sprintf("stream-%d", s), 15) {
				if err := rt.Ingest(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		return got
	}
	unset := run(0)
	explicit := run(10) // == testConfig's WindowWidth
	if len(unset) != len(explicit) {
		t.Fatalf("answer sets differ: %d vs %d", len(unset), len(explicit))
	}
	for key, want := range unset {
		got := explicit[key]
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers vs %d", key, len(got), len(want))
		}
		for i := range want {
			if got[i].Detected != want[i].Detected || got[i].WindowIndex != want[i].WindowIndex ||
				got[i].Window.Start != want[i].Window.Start || got[i].Window.End != want[i].Window.End ||
				len(got[i].Window.Events) != len(want[i].Window.Events) {
				t.Fatalf("%s answer %d: %+v vs %+v", key, i, got[i], want[i])
			}
		}
	}
}
