package runtime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/event"
)

// spendTol is the float comparison slack for accumulated spends.
func spendTol(x float64) float64 { return math.Abs(x)*1e-9 + 1e-9 }

// durableConfig is testConfig plus a budget ledger and a WAL directory.
func durableConfig(t *testing.T, dir string, shards int, budget dp.Epsilon) Config {
	t.Helper()
	cfg := testConfig(t, shards)
	cfg.Budget = budget
	cfg.Durability = &DurabilityConfig{Dir: dir, Fsync: FsyncOff}
	return cfg
}

// TestRestartResumesServing is the graceful kill-and-restart e2e: a runtime
// serves and closes (writing its final checkpoint), a second runtime recovers
// from the same directory, and serving resumes from the restored state —
// window indices continue where they left off and the restored spend carries
// over instead of being re-granted.
func TestRestartResumesServing(t *testing.T) {
	dir := t.TempDir()
	const charge, windows = 50, 10
	cfg := durableConfig(t, dir, 2, 100*charge)

	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt1.Recovery() != nil {
		t.Fatal("fresh directory reported a recovery")
	}
	for _, e := range streamEvents("s1", windows) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}
	snap1 := rt1.Snapshot()
	spent1 := float64(snap1.Budget.Spent) + float64(snap1.Budget.Retired)
	if spent1 != charge*windows {
		t.Fatalf("pre-restart spend = %v, want %v", spent1, charge*windows)
	}

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := rt2.Recovery()
	if rec == nil {
		t.Fatal("no recovery from a non-empty directory")
	}
	if rec.CheckpointID == 0 {
		t.Error("graceful close left no checkpoint")
	}
	if rec.Streams != 1 {
		t.Errorf("restored streams = %d, want 1", rec.Streams)
	}
	if got := float64(rec.RestoredSpend) + float64(rec.ReplayedSpend); math.Abs(got-spent1) > spendTol(spent1) {
		t.Errorf("restored+replayed spend = %v, want %v", got, spent1)
	}
	snap2 := rt2.Snapshot()
	if got := float64(snap2.Budget.Spent) + float64(snap2.Budget.Retired); math.Abs(got-spent1) > spendTol(spent1) {
		t.Errorf("recovered ledger spend = %v, want %v", got, spent1)
	}

	// Serving resumes: the restored stream's window indices continue.
	sub, err := rt2.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	var got []Answer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			got = append(got, a)
		}
	}()
	for w := windows; w < windows+4; w++ {
		e := event.New("a", event.Timestamp(w*10+1)).WithSource("s1")
		if err := rt2.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if len(got) != 4 {
		t.Fatalf("post-restart answers = %d, want 4", len(got))
	}
	for i, a := range got {
		if a.WindowIndex != windows+i {
			t.Fatalf("answer %d window index = %d, want %d (continuing)", i, a.WindowIndex, windows+i)
		}
	}
	snap3 := rt2.Snapshot()
	want := spent1 + 4*charge
	if got := float64(snap3.Budget.Spent) + float64(snap3.Budget.Retired); math.Abs(got-want) > spendTol(want) {
		t.Errorf("post-restart spend = %v, want %v (restored + 4 windows)", got, want)
	}
}

// TestRestartResumesBudgetEpoch checks that a rotated budget epoch survives
// the restart: the recovered runtime resumes from the rotated epoch instead
// of re-granting under epoch 0.
func TestRestartResumesBudgetEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir, 1, 1000)
	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s1", 3) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	ep, err := rt1.RotateBudget()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt1.RegisterQuery(cep.Query{Name: "extra", Pattern: cep.E("b"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if got := rt2.BudgetEpoch(); got < ep {
		t.Errorf("recovered budget epoch = %d, want >= %d", got, ep)
	}
	if got := rt2.Epoch(); got < ep {
		t.Errorf("recovered control epoch = %d, want >= %d", got, ep)
	}
	if rec := rt2.Recovery(); rec.BudgetEpoch < ep {
		t.Errorf("summary budget epoch = %d, want >= %d", rec.BudgetEpoch, ep)
	}
}

// TestCheckpointOnDemand checks Checkpoint while serving and recovery from
// checkpoint + WAL tail (records past the checkpoint replayed on top).
func TestCheckpointOnDemand(t *testing.T) {
	dir := t.TempDir()
	const charge = 50
	cfg := durableConfig(t, dir, 2, 100*charge)
	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s1", 5) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt1.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s2", 5) {
		if err := rt1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon rt1 without a graceful close: simulate a process death by
	// closing only the WAL (flushing nothing new — FsyncOff writes are
	// already in the page cache via direct write(2)).
	rt1.durLog.InjectCrash(durable.CrashBeforeCommit, 1<<30) // never fires; freezes nothing
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rec := rt2.Recovery()
	if rec == nil || rec.CheckpointID == 0 {
		t.Fatalf("recovery = %+v, want a checkpoint", rec)
	}
	if rec.Streams != 2 {
		t.Errorf("restored streams = %d, want both (checkpointed + replayed)", rec.Streams)
	}
	snap := rt2.Snapshot()
	// s1 flushed 5 windows before the checkpoint... plus its final flush
	// window and s2's on close; the ledger must hold every charged window.
	want := float64(rt1.Snapshot().Budget.Spent) + float64(rt1.Snapshot().Budget.Retired)
	if got := float64(snap.Budget.Spent) + float64(snap.Budget.Retired); got+spendTol(want) < want {
		t.Errorf("recovered spend %v under-counts pre-restart spend %v", got, want)
	}
}

// TestErrDurabilityDisabled checks Checkpoint without Config.Durability.
func TestErrDurabilityDisabled(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Checkpoint(context.Background()); err != ErrDurabilityDisabled {
		t.Fatalf("Checkpoint = %v, want ErrDurabilityDisabled", err)
	}
}

// TestCrashRecoveryNeverUnderCounts is the crash-point property test behind
// the durability subsystem's one-sided invariant: across randomized
// workloads and injected crashes at every kill point — after the ledger
// charge but before the WAL append, after the append but before the publish,
// and mid-checkpoint — the spend recovered on restart must be at least the
// spend of every answer that was actually published. Over-counting is
// allowed (a charge whose answer never left); under-counting never is.
// Runs under -race in CI.
func TestCrashRecoveryNeverUnderCounts(t *testing.T) {
	points := []durable.CrashPoint{durable.CrashBeforeCommit, durable.CrashAfterCommit, durable.CrashMidCheckpoint}
	const trials = 18
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%02d", trial), func(t *testing.T) {
			runCrashTrial(t, rand.New(rand.NewSource(int64(7000+trial))), points[trial%len(points)])
		})
	}
}

func runCrashTrial(t *testing.T, rng *rand.Rand, point durable.CrashPoint) {
	t.Helper()
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	charge := dp.Epsilon(0.5 + rng.Float64())
	grant := charge * dp.Epsilon(2+rng.Intn(10))
	dir := t.TempDir()
	cfg := Config{
		Shards:      1 + rng.Intn(3),
		WindowWidth: 10,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(charge, pt)
		},
		Private:      []core.PatternType{pt},
		Targets:      []cep.Query{{Name: "base", Pattern: cep.E("a"), Window: 10}},
		Seed:         int64(rng.Int()),
		Budget:       grant,
		BudgetPolicy: []BudgetPolicy{BudgetDeny, BudgetSuppress, BudgetThrottle}[rng.Intn(3)],
		Durability:   &DurabilityConfig{Dir: dir, Fsync: FsyncOff},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("base")
	if err != nil {
		t.Fatal(err)
	}
	// Track published admitted releases: any answer the subscriber holds
	// was published strictly after its WAL record committed, so its charge
	// must be in the recovered ledger.
	type winKey struct {
		stream string
		idx    int
	}
	published := make(map[winKey]bool)
	var mu sync.Mutex
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			if a.Suppressed {
				continue
			}
			mu.Lock()
			published[winKey{a.Stream, a.WindowIndex}] = true
			mu.Unlock()
		}
	}()

	rt.durLog.InjectCrash(point, 1+rng.Intn(25))
	streams := 1 + rng.Intn(4)
	clocks := make([]event.Timestamp, streams)
	events := 100 + rng.Intn(200)
	ckptEvery := 10 + rng.Intn(30)
	for i := 0; i < events; i++ {
		s := rng.Intn(streams)
		clocks[s] += event.Timestamp(1 + rng.Intn(8))
		typ := event.Type("a")
		if rng.Intn(4) == 0 {
			typ = event.Type("b")
		}
		e := event.New(typ, clocks[s]).WithSource(fmt.Sprintf("stream-%d", s))
		if err := rt.Ingest(e); err != nil {
			break // the crash fired and the shard failed
		}
		if point == durable.CrashMidCheckpoint && i%ckptEvery == ckptEvery-1 {
			rt.Checkpoint(context.Background()) //nolint:errcheck // ErrCrashed once tripped
		}
	}
	rt.Close() //nolint:errcheck // a crashed run reports the injected crash
	consumer.Wait()

	crashed := rt.durLog.Crashed()
	mu.Lock()
	publishedSpend := float64(len(published)) * float64(charge)
	mu.Unlock()

	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := rt2.Snapshot()
	recovered := float64(snap.Budget.Spent) + float64(snap.Budget.Retired)
	if recovered+spendTol(publishedSpend) < publishedSpend {
		t.Fatalf("crash=%v (fired=%t): recovered spend %v under-counts published spend %v (%d admitted windows x %v)",
			point, crashed, recovered, publishedSpend, len(published), charge)
	}
	// And the recovered runtime still serves.
	e := event.New("a", clocks[0]+100).WithSource("stream-0")
	if err := rt2.Ingest(e); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointLoop checks the background CheckpointEvery cadence writes
// checkpoints without stalling serving.
func TestCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir, 2, 5000)
	cfg.Durability.CheckpointEvery = time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s1", 20) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rec := rt2.Recovery()
	if rec == nil || rec.CheckpointID < 2 {
		t.Fatalf("recovery = %+v, want several checkpoints written by the loop", rec)
	}
}

// TestDurabilityValidation checks the Config.Durability validation rules.
func TestDurabilityValidation(t *testing.T) {
	base := testConfig(t, 1)
	for name, mutate := range map[string]func(*Config){
		"empty dir":     func(c *Config) { c.Durability = &DurabilityConfig{} },
		"negative ckpt": func(c *Config) { c.Durability = &DurabilityConfig{Dir: "x", CheckpointEvery: -1} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid durability config", name)
		}
	}
}
