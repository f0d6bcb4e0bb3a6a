// Command dpaudit empirically audits the pattern-level DP guarantee of the
// shipped mechanisms: it constructs neighboring inputs for a private pattern,
// samples releases, and reports the observed log-likelihood ratios against
// the claimed ε.
//
// Usage:
//
//	dpaudit -eps 1.0 -m 3 -trials 100000
//	dpaudit -serve -eps 1.0 -budget 8 -trials 20000
//	dpaudit -restart -eps 1.0 -budget 8
//
// With -serve it audits the streaming runtime's privacy-budget ledger
// end-to-end: a budgeted serving run (sliding windows, Deny policy) produces
// a ledger snapshot whose declared bounds — per-release charge, per-stream
// sequential spend vs. the grant, and the w-event composed per-event loss —
// are checked for internal consistency, and the per-release empirical ε̂
// measured on the same mechanism must not exceed the ledger's declared
// charge. The exit status is non-zero when the empirical measurement exceeds
// the declared bound, so CI can run it as a smoke gate.
//
// With -restart it audits the ledger across restart boundaries (see README
// "Durability"): a budgeted serving run writes a WAL, is abandoned without a
// graceful close (a simulated kill — no final checkpoint, no drain), and the
// recovered ledger's spend is held to the one-sided crash-safety invariant:
// it must cover the spend of every answer that was published before the
// kill (over-counting allowed, under-counting never). A second, graceful
// restart then checks the exact boundary: a drained close loses nothing and
// the rotated budget epoch is preserved. A third phase drives the serving
// layer across the same boundary: a reconnecting subscriber rides a
// drain/spill/restart cycle and its answer stream must keep one continuous
// sequence space that tiles exactly-once-or-explicit-gap — seq continuity,
// not just spend. Non-zero exit on violation, for the same CI audit job.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

func main() {
	var (
		eps     = flag.Float64("eps", 1.0, "claimed pattern-level budget")
		m       = flag.Int("m", 3, "private pattern length")
		trials  = flag.Int("trials", 100000, "samples per neighbor input")
		seed    = flag.Int64("seed", 1, "audit seed")
		serve   = flag.Bool("serve", false, "audit the serving ledger: run a budgeted serving pass and compare declared vs empirical ε")
		restart = flag.Bool("restart", false, "audit the ledger across restart boundaries: kill + recover, hold recovered spend to published spend")
		budget  = flag.Float64("budget", 0, "per-stream grant for -serve/-restart (default 8 x eps)")
	)
	flag.Parse()
	var err error
	switch {
	case *restart:
		err = runRestart(*eps, *m, *seed, *budget)
	case *serve:
		err = runServe(*eps, *m, *trials, *seed, *budget)
	default:
		err = run(*eps, *m, *trials, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpaudit:", err)
		os.Exit(1)
	}
}

func run(eps float64, m, trials int, seed int64) error {
	pt, err := patternType(m)
	if err != nil {
		return err
	}
	uniform, err := core.NewUniformPPM(dp.Epsilon(eps), pt)
	if err != nil {
		return err
	}
	count, err := core.NewCountPPM(dp.Epsilon(eps), pt)
	if err != nil {
		return err
	}
	aud := core.Auditor{Trials: trials, Seed: seed}
	baseline := map[event.Type]bool{"public": true}

	for _, mech := range []core.Mechanism{uniform, count} {
		results, err := aud.AuditPattern(mech, pt, baseline, eps)
		if err != nil {
			return err
		}
		fmt.Printf("mechanism %q, claimed eps = %.3f, trials = %d\n",
			mech.Name(), eps, trials)
		for _, r := range results {
			label := "all elements"
			if r.Flipped != "" {
				label = "element " + string(r.Flipped)
			}
			fmt.Printf("  %-16s observed ratio %.4f\n", label, r.Certificate.MaxObservedRatio)
		}
		v := core.Summarize(results, 0.1)
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
		}
		fmt.Printf("  verdict: %s (full-pattern %.4f vs eps %.3f + slack)\n\n",
			status, v.FullPattern, eps)
	}
	return nil
}

func patternType(m int) (core.PatternType, error) {
	elements := make([]event.Type, m)
	for i := range elements {
		elements[i] = event.Type(fmt.Sprintf("e%d", i+1))
	}
	return core.NewPatternType("audited", elements...)
}

// runServe audits the privacy-budget ledger: serve a small budgeted run,
// check the ledger's declared bounds for internal consistency, then measure
// the per-release empirical ε̂ on the same mechanism and hold it to the
// ledger's declared charge.
func runServe(eps float64, m, trials int, seed int64, budget float64) error {
	if budget <= 0 {
		budget = 8 * eps
	}
	// The empirical ratio estimator overshoots at small samples, and the
	// verdict's fixed slack assumes the estimate has converged — floor the
	// sample size so the gate fails only on real violations.
	const minServeTrials = 20000
	if trials < minServeTrials {
		fmt.Printf("raising -trials %d to %d: the serve-audit verdict needs a converged estimate\n",
			trials, minServeTrials)
		trials = minServeTrials
	}
	pt, err := patternType(m)
	if err != nil {
		return err
	}
	const (
		streams = 4
		slide   = event.Timestamp(10)
		overlap = 2
		windows = 40
	)
	cfg := runtime.Config{
		Shards:      2,
		WindowWidth: slide * overlap,
		Slide:       slide,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(eps), pt)
		},
		Private:      []core.PatternType{pt},
		Targets:      []cep.Query{{Name: "audit-q", Pattern: cep.E(pt.Elements[0]), Window: slide * overlap}},
		Seed:         seed,
		Budget:       dp.Epsilon(budget),
		BudgetPolicy: runtime.BudgetDeny,
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	// Drain answers so publishing never stalls.
	sub, err := rt.Subscribe("")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	var answers, released int
	go func() {
		defer close(done)
		for a := range sub.C() {
			answers++
			if !a.Suppressed {
				released++
			}
		}
	}()
	for s := 0; s < streams; s++ {
		key := fmt.Sprintf("audit-%d", s)
		for w := event.Timestamp(0); w < windows; w++ {
			for i, el := range pt.Elements {
				e := event.New(el, w*slide+event.Timestamp(i)).WithSource(key)
				if err := rt.Ingest(e); err != nil {
					return err
				}
			}
		}
	}
	if err := rt.Close(); err != nil {
		return err
	}
	<-done
	b := rt.Snapshot().Budget
	if b == nil {
		return fmt.Errorf("serving run produced no budget snapshot")
	}

	fmt.Printf("ledger: grant %.3f/stream/epoch, charge %.3f/window, policy %s, overlap %d\n",
		float64(b.Grant), float64(b.Charge), b.Policy, b.Overlap)
	fmt.Printf("ledger: %d admitted, %d denied of %d decisions across %d streams (%d answers, %d released)\n",
		b.Admitted, b.Denied, b.Admitted+b.Denied+b.Suppressed, b.Streams, answers, released)
	fmt.Printf("ledger: spent %.4f (+%.4f retired), max stream %.4f, w-event composed max %.4f\n",
		float64(b.Spent), float64(b.Retired), float64(b.MaxStreamSpent), float64(b.MaxComposed))

	fail := func(format string, args ...any) error {
		fmt.Printf("  verdict: FAIL — "+format+"\n", args...)
		return fmt.Errorf("ledger audit failed")
	}
	tol := dp.SpendTolerance(dp.Epsilon(budget)) + 1e-12
	// Internal consistency: the declared charge is the mechanism's claim,
	// spend is exactly admitted x charge, and both composition bounds hold.
	if math.Abs(float64(b.Charge)-eps) > 1e-12 {
		return fail("declared charge %.4f != mechanism eps %.4f", float64(b.Charge), eps)
	}
	if got, want := float64(b.Spent)+float64(b.Retired), float64(b.Admitted)*eps; math.Abs(got-want) > 1e-9 {
		return fail("ledger spend %.6f != admitted x charge %.6f", got, want)
	}
	if float64(b.MaxStreamSpent) > budget+tol {
		return fail("per-stream spend %.4f exceeds declared grant %.4f", float64(b.MaxStreamSpent), budget)
	}
	if bound := math.Min(budget, float64(overlap)*eps); float64(b.MaxComposed) > bound+tol {
		return fail("w-event composed loss %.4f exceeds declared bound %.4f", float64(b.MaxComposed), bound)
	}

	// Empirical per-release audit of the same mechanism: the observed
	// log-likelihood ratio must stay within the ledger's declared
	// per-window charge (plus sampling slack).
	mech, err := core.NewUniformPPM(dp.Epsilon(eps), pt)
	if err != nil {
		return err
	}
	aud := core.Auditor{Trials: trials, Seed: seed}
	results, err := aud.AuditPattern(mech, pt, map[event.Type]bool{"public": true}, float64(b.Charge))
	if err != nil {
		return err
	}
	v := core.Summarize(results, 0.1)
	fmt.Printf("empirical: per-release eps-hat %.4f over %d trials (declared charge %.4f)\n",
		v.FullPattern, trials, float64(b.Charge))
	fmt.Printf("empirical: implied w-event composed %.4f (declared %.4f)\n",
		float64(overlap)*v.FullPattern, math.Min(budget, float64(overlap)*eps))
	if !v.Pass {
		return fail("empirical eps-hat %.4f exceeds declared charge %.4f + slack", v.FullPattern, float64(b.Charge))
	}
	fmt.Println("  verdict: PASS — empirical eps-hat within the ledger's declared bound")
	return nil
}

// runRestart audits the ledger across restart boundaries. Phase 1 serves a
// budgeted run against a WAL and abandons it without Close — the moral
// equivalent of a kill: no final checkpoint, no drain, only what the
// append-before-publish path already wrote. Recovery must then satisfy the
// one-sided invariant: recovered spend >= the spend of every answer that was
// published before the kill. Phase 2 closes gracefully after a budget
// rotation and checks the exact boundary: nothing lost, epoch preserved.
func runRestart(eps float64, m int, seed int64, budget float64) error {
	if budget <= 0 {
		budget = 8 * eps
	}
	pt, err := patternType(m)
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp("", "dpaudit-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	const (
		streams = 4
		slide   = event.Timestamp(10)
		overlap = 2
		windows = 40
	)
	cfg := runtime.Config{
		Shards:      2,
		WindowWidth: slide * overlap,
		Slide:       slide,
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(eps), pt)
		},
		Private:      []core.PatternType{pt},
		Targets:      []cep.Query{{Name: "audit-q", Pattern: cep.E(pt.Elements[0]), Window: slide * overlap}},
		Seed:         seed,
		Budget:       dp.Epsilon(budget),
		BudgetPolicy: runtime.BudgetDeny,
		Durability:   &runtime.DurabilityConfig{Dir: walDir, Fsync: runtime.FsyncOff},
	}
	fail := func(format string, args ...any) error {
		fmt.Printf("  verdict: FAIL — "+format+"\n", args...)
		return fmt.Errorf("restart-boundary audit failed")
	}
	ledgerSpend := func(rt *runtime.Runtime) float64 {
		b := rt.Snapshot().Budget
		if b == nil {
			return 0
		}
		return float64(b.Spent) + float64(b.Retired)
	}

	// Phase 1: serve, then abandon at the kill boundary. The subscriber
	// records every published (stream, window) release; a window charged but
	// never published may over-count on recovery — that is the allowed side.
	rt1, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	sub, err := rt1.Subscribe("audit-q")
	if err != nil {
		return err
	}
	type winKey struct {
		stream string
		window int
	}
	published := make(map[winKey]bool)
	var pubMu sync.Mutex
	var delivered atomic.Int64
	go func() {
		for a := range sub.C() {
			delivered.Add(1)
			if a.Suppressed {
				continue
			}
			pubMu.Lock()
			published[winKey{a.Stream, a.WindowIndex}] = true
			pubMu.Unlock()
		}
	}()
	var ingested int64
	ingest := func(rt *runtime.Runtime, from, to event.Timestamp) error {
		for s := 0; s < streams; s++ {
			key := fmt.Sprintf("audit-%d", s)
			for w := from; w < to; w++ {
				for i, el := range pt.Elements {
					e := event.New(el, w*slide+event.Timestamp(i)).WithSource(key)
					if err := rt.Ingest(e); err != nil {
						return err
					}
					ingested++
				}
			}
		}
		return nil
	}
	if err := ingest(rt1, 0, windows/2); err != nil {
		return err
	}
	// Settle: Ingest only enqueues, so wait until the shards have processed
	// every enqueued event and every emitted answer reached the subscriber —
	// then the published set reflects everything that left the runtime.
	// (Answers still unpublished at the kill only loosen the bound — the
	// safe side of the invariant.)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		tot := rt1.Snapshot().Totals()
		if tot.EventsIn == ingested && delivered.Load() >= tot.AnswersEmitted {
			break
		}
	}
	pubMu.Lock()
	publishedSpend := float64(len(published)) * eps
	pubMu.Unlock()
	// Kill: rt1 is abandoned, never closed. Every published answer's WAL
	// record was committed (direct write) strictly before its publish.

	rt2, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	rec := rt2.Recovery()
	if rec == nil {
		return fail("no recovery from the killed run's WAL directory")
	}
	recovered := ledgerSpend(rt2)
	fmt.Printf("kill boundary: %d published releases (%.4f eps) before the kill\n", len(published), publishedSpend)
	fmt.Printf("recovered: %.4f eps from %d WAL records + checkpoint %d (%d streams)\n",
		recovered, rec.ReplayedRecords, rec.CheckpointID, rec.Streams)
	tol := dp.SpendTolerance(dp.Epsilon(budget)) + 1e-12
	if recovered+tol < publishedSpend {
		return fail("recovered spend %.6f under-counts published spend %.6f", recovered, publishedSpend)
	}

	// Phase 2: the graceful boundary. Rotate the budget epoch, serve the
	// rest, drain through Close (final checkpoint), and recover again: the
	// spend must carry over exactly and the rotated epoch must survive.
	ep, err := rt2.RotateBudget()
	if err != nil {
		return err
	}
	if err := ingest(rt2, windows/2, windows); err != nil {
		return err
	}
	if err := rt2.Close(); err != nil {
		return err
	}
	preClose := ledgerSpend(rt2)

	rt3, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	defer rt3.Close()
	rec3 := rt3.Recovery()
	if rec3 == nil || rec3.CheckpointID == 0 {
		return fail("graceful close left no checkpoint to recover")
	}
	after := ledgerSpend(rt3)
	fmt.Printf("graceful boundary: %.4f eps before close, %.4f recovered (budget epoch %d -> %d)\n",
		preClose, after, ep, rt3.BudgetEpoch())
	if math.Abs(after-preClose) > tol {
		return fail("graceful restart changed the ledger: %.6f -> %.6f", preClose, after)
	}
	if rt3.BudgetEpoch() < ep {
		return fail("rotated budget epoch %d lost across restart (recovered %d)", ep, rt3.BudgetEpoch())
	}

	// Phase 3: the serving layer across the same boundary. A reconnecting
	// subscriber rides a drain/spill/restart cycle; its answer stream must
	// keep one continuous sequence space (no synthetic unknown-extent gap)
	// that tiles exactly-once-or-explicit-gap across the restart.
	srvCfg := server.Config{
		Auth:         server.TokenAuth(0),
		Heartbeat:    200 * time.Millisecond,
		ResumeWindow: 30 * time.Second,
		ReplayBuffer: 64,
	}
	startSrv := func(rt *runtime.Runtime) (*server.Server, *server.MemListener, chan struct{}, error) {
		c := srvCfg
		c.Runtime = rt
		s, err := server.New(c)
		if err != nil {
			return nil, nil, nil, err
		}
		l := server.NewMemListener()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Serve(l)
		}()
		return s, l, done, nil
	}
	srvA, lA, doneA, err := startSrv(rt3)
	if err != nil {
		return err
	}
	var target atomic.Pointer[server.MemListener]
	target.Store(lA)
	client, err := server.Connect(server.ClientConfig{
		Token:          "audit",
		Dialer:         func() (net.Conn, error) { return target.Load().Dial() },
		Reconnect:      true,
		BackoffMin:     2 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	auditSub, err := client.Subscribe("audit-q", 256)
	if err != nil {
		return err
	}

	// Collector: delivered seqs and explicit gap ranges must tile [1, max]
	// with neither overlap nor holes; a Seq-0 gap marker means the resume
	// degraded to a fresh sequence space, which phase 3 forbids.
	var (
		subMu       sync.Mutex
		subErr      error
		subDeliv    = map[uint64]bool{}
		subGapped   = map[uint64]bool{}
		subMax      uint64
		epochBreaks int
		progress    atomic.Int64
	)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for a := range auditSub.C {
			progress.Add(1)
			subMu.Lock()
			switch {
			case a.Gap && a.Seq == 0:
				epochBreaks++
			case a.Gap:
				for q := a.GapFrom; q <= a.Seq; q++ {
					if subDeliv[q] || subGapped[q] {
						subErr = fmt.Errorf("seq %d covered twice", q)
					}
					subGapped[q] = true
				}
				subMax = max(subMax, a.Seq)
			default:
				if subDeliv[a.Seq] || subGapped[a.Seq] {
					subErr = fmt.Errorf("seq %d delivered twice", a.Seq)
				}
				subDeliv[a.Seq] = true
				subMax = max(subMax, a.Seq)
			}
			subMu.Unlock()
		}
	}()
	clientIngest := func(from, to event.Timestamp) error {
		for w := from; w < to; w++ {
			evs := make([]event.Event, 0, len(pt.Elements))
			for i, el := range pt.Elements {
				evs = append(evs, event.New(el, w*slide+event.Timestamp(i)).WithSource("audit-live"))
			}
			var ierr error
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
				if _, ierr = client.Ingest(evs); ierr == nil {
					break
				}
			}
			if ierr != nil {
				return fmt.Errorf("ingest window %d: %w", w, ierr)
			}
		}
		return nil
	}
	const liveWindows = 8
	if err := clientIngest(0, liveWindows); err != nil {
		return err
	}

	// The restart: drain preserving session cores, spill them beside the
	// WAL, close gracefully, recover a successor, adopt the spill, and swing
	// the client's dialer over.
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	srvA.DrainForHandoff()
	closeErr := rt3.CloseContext(dctx)
	waitErr := srvA.Wait(dctx)
	dcancel()
	if closeErr != nil || waitErr != nil {
		return fmt.Errorf("phase-3 drain: close %v wait %v", closeErr, waitErr)
	}
	subMu.Lock()
	boundarySeq := subMax
	subMu.Unlock()
	spill := srvA.ExportSessions()
	if err := durable.WriteSessions(walDir, spill); err != nil {
		return err
	}
	srvA.Close()
	<-doneA

	rt4, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	defer rt4.Close()
	srvB, lB, doneB, err := startSrv(rt4)
	if err != nil {
		return err
	}
	defer func() {
		srvB.Close()
		<-doneB
	}()
	sp2, err := durable.ReadSessions(walDir)
	if err != nil {
		return err
	}
	adopted := 0
	if sp2 != nil {
		if adopted, err = srvB.ImportSessions(sp2); err != nil {
			return err
		}
		if err := durable.RemoveSessions(walDir); err != nil {
			return err
		}
	}
	target.Store(lB)
	if err := clientIngest(liveWindows, 2*liveWindows); err != nil {
		return err
	}

	// Quiesce, then judge the stream.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		p := progress.Load()
		time.Sleep(300 * time.Millisecond)
		if progress.Load() == p && p > 0 {
			break
		}
	}
	client.Close()
	<-collectorDone

	subMu.Lock()
	defer subMu.Unlock()
	fmt.Printf("subscription boundary: seq space [1..%d] across restart (%d delivered, %d gapped, boundary at seq %d, %d sessions adopted, %d reconnects)\n",
		subMax, len(subDeliv), len(subGapped), boundarySeq, adopted, client.Reconnects())
	if subErr != nil {
		return fail("subscription stream violated exactly-once: %v", subErr)
	}
	if adopted == 0 {
		return fail("restart adopted no spilled sessions — resume had nothing to land on")
	}
	if epochBreaks != 0 {
		return fail("restart broke the subscription sequence space %d time(s): resume degraded to a fresh epoch", epochBreaks)
	}
	if subMax <= boundarySeq {
		return fail("no answers delivered after the restart (max seq %d, boundary %d)", subMax, boundarySeq)
	}
	for q := uint64(1); q <= subMax; q++ {
		if !subDeliv[q] && !subGapped[q] {
			return fail("seq %d lost silently across the restart (max %d)", q, subMax)
		}
	}
	fmt.Println("  verdict: PASS — recovered spend covers published spend and the subscription seq space tiles across the restart")
	return nil
}
