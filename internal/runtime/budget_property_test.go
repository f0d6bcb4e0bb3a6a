package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// TestBudgetLedgerMatchesBruteForce is the randomized composition property
// test: across random widths, slides, lateness policies, charges, grants,
// policies, and control-plane churn, the ledger's totals must equal the
// brute-force model — per-window ε summed by the sliding/w-event composition
// rule over the windows the runtime actually released — and under every
// policy a stream's released answers must never compose past the declared
// grant. Runs under -race in CI.
func TestBudgetLedgerMatchesBruteForce(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + trial)))
			runBudgetTrial(t, rng)
		})
	}
}

func runBudgetTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	overlap := []int{1, 1, 2, 4}[rng.Intn(4)]
	slide := event.Timestamp(4 + rng.Intn(5)) // 4..8
	width := slide * event.Timestamp(overlap)
	charge := dp.Epsilon(0.1 + rng.Float64()*1.9)
	grant := charge * dp.Epsilon(1+rng.Intn(12))
	policy := []BudgetPolicy{BudgetDeny, BudgetDeny, BudgetSuppress, BudgetThrottle}[rng.Intn(4)]
	streams := 2 + rng.Intn(3)
	events := 120 + rng.Intn(120)
	churn := rng.Intn(2) == 1

	cfg := Config{
		Shards:      1 + rng.Intn(3),
		WindowWidth: width,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(charge, pt)
		},
		Private:      []core.PatternType{pt},
		Targets:      []cep.Query{{Name: "base", Pattern: cep.E("a"), Window: width}},
		Seed:         int64(rng.Int()),
		Budget:       grant,
		BudgetPolicy: policy,
	}
	if overlap > 1 {
		cfg.Slide = slide
	}
	lateness := event.Timestamp(0)
	if rng.Intn(2) == 1 {
		cfg.Lateness = ReorderBuffer
		lateness = event.Timestamp(1 + rng.Intn(int(slide)))
		cfg.AllowedLateness = lateness
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("base")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	type rel struct {
		idx        int
		suppressed bool
		spent      dp.Epsilon
	}
	byStream := make(map[string][]rel)
	leaked := 0 // answers carrying window contents beyond the interval
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			mu.Lock()
			byStream[a.Stream] = append(byStream[a.Stream], rel{a.WindowIndex, a.Suppressed, a.SpentEpsilon})
			if a.Window.Events != nil || a.Window.TypeCounts != nil {
				leaked++
			}
			mu.Unlock()
		}
	}()

	// One producer per stream with mild disorder; optional control-plane
	// churn (a probe query registered and unregistered) from the main
	// goroutine while traffic flows.
	var producers sync.WaitGroup
	for s := 0; s < streams; s++ {
		producers.Add(1)
		go func(s int) {
			defer producers.Done()
			prng := rand.New(rand.NewSource(int64(900 + s)))
			key := fmt.Sprintf("stream-%d", s)
			ts := event.Timestamp(0)
			for i := 0; i < events; i++ {
				ts += event.Timestamp(prng.Intn(3))
				et := event.Type("a")
				if prng.Intn(3) == 0 {
					et = "b"
				}
				jitter := event.Timestamp(0)
				if lateness > 0 && prng.Intn(4) == 0 {
					jitter = event.Timestamp(prng.Intn(int(lateness)))
				}
				e := event.New(et, ts-jitter).WithSource(key)
				if err := rt.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	if churn {
		for i := 0; i < 6; i++ {
			probe := cep.Query{Name: "probe", Pattern: cep.E("b"), Window: width}
			if i%2 == 0 {
				if _, err := rt.RegisterQuery(probe); err != nil {
					t.Fatal(err)
				}
			} else if _, err := rt.UnregisterQuery(probe); err != nil {
				t.Fatal(err)
			}
		}
	}
	producers.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if leaked > 0 {
		t.Fatalf("%d answers carry window events or tallies (overlap %d): answers are interval-only", leaked, overlap)
	}

	b := rt.Snapshot().Budget
	if b == nil {
		t.Fatal("no budget snapshot")
	}
	tol := 1e-9
	// Brute-force model: one charge per non-suppressed released window (the
	// "base" query is always registered, so it sees every released window
	// exactly once — churn must not multiply charges).
	var modelSpent float64
	modelMaxStream := 0.0
	modelMaxComposed := 0.0
	for key, rels := range byStream {
		var streamSpent dp.Sum
		var admittedIdx []int
		last := dp.Epsilon(-1)
		for _, r := range rels {
			if r.spent < last {
				t.Fatalf("stream %s: SpentEpsilon regressed %v -> %v", key, last, r.spent)
			}
			last = r.spent
			if r.suppressed {
				continue
			}
			streamSpent.Add(float64(charge))
			admittedIdx = append(admittedIdx, r.idx)
		}
		sp := streamSpent.Value()
		modelSpent += sp
		if sp > modelMaxStream {
			modelMaxStream = sp
		}
		// Enforcement: sequential composition per stream never exceeds the
		// grant, under every policy.
		if sp > float64(grant)+tol {
			t.Fatalf("stream %s: released answers compose to %v > grant %v (policy %v)",
				key, sp, grant, policy)
		}
		// w-event composition under sliding overlap: any event is covered
		// by at most `overlap` consecutive windows, so its loss is the
		// largest charge sum over any run of overlap consecutive window
		// indices.
		for i := range admittedIdx {
			n := 1
			for j := i + 1; j < len(admittedIdx) && admittedIdx[j] < admittedIdx[i]+overlap; j++ {
				n++
			}
			composed := float64(n) * float64(charge)
			if composed > modelMaxComposed {
				modelMaxComposed = composed
			}
			if composed > math.Min(float64(grant), float64(overlap)*float64(charge))+tol {
				t.Fatalf("stream %s: w-event composition %v exceeds min(grant %v, overlap x charge %v)",
					key, composed, grant, float64(overlap)*float64(charge))
			}
		}
	}
	// Ledger vs model: total sequential spend (no evictions or rotations in
	// this trial, so live + retired must equal the model).
	if got := float64(b.Spent) + float64(b.Retired); math.Abs(got-modelSpent) > tol {
		t.Fatalf("ledger Spent+Retired = %v, brute-force model = %v (policy %v, overlap %d, admitted %d)",
			got, modelSpent, policy, overlap, b.Admitted)
	}
	if got := float64(b.MaxStreamSpent); math.Abs(got-modelMaxStream) > tol {
		t.Fatalf("ledger MaxStreamSpent = %v, model = %v", got, modelMaxStream)
	}
	// The ledger's composed bound is the historical per-event maximum —
	// exactly the model's largest charge sum over any overlap-consecutive
	// run of released windows.
	if math.Abs(float64(b.MaxComposed)-modelMaxComposed) > tol {
		t.Fatalf("ledger MaxComposed = %v, brute-force model = %v", b.MaxComposed, modelMaxComposed)
	}
	if float64(b.MaxComposed) > float64(overlap)*float64(charge)+tol {
		t.Fatalf("ledger MaxComposed = %v exceeds overlap x charge", b.MaxComposed)
	}
	// Admission counters are consistent with the released answer stream.
	var admitted int64
	for _, rels := range byStream {
		for _, r := range rels {
			if !r.suppressed {
				admitted++
			}
		}
	}
	if b.Admitted != admitted {
		t.Fatalf("ledger Admitted = %d, released non-suppressed answers = %d", b.Admitted, admitted)
	}
	if math.Abs(float64(b.Spent)+float64(b.Retired)-float64(admitted)*float64(charge)) > tol {
		t.Fatalf("Spent = %v, want admitted x charge = %v", b.Spent, float64(admitted)*float64(charge))
	}
}
