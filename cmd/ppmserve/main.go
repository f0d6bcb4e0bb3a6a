// Command ppmserve demonstrates the sharded streaming runtime: it replays
// synthetic traffic (Algorithm 2) across many concurrent streams, serves the
// dataset's target queries behind the uniform PPM, and prints throughput and
// the per-shard serving counters. With -churn it also exercises the dynamic
// control plane, registering and unregistering a probe query at the given
// rate while traffic flows.
//
// Usage:
//
//	ppmserve -shards 8 -streams 32 -windows 500 -eps 1.0 -backpressure block
//	ppmserve -churn 10
//	ppmserve -batch 256 -cpuprofile cpu.out -memprofile mem.out
//	ppmserve -slide 25 -snap 2s
//	ppmserve -budget 100 -budget-policy throttle
//	ppmserve -budget 100 -wal-dir /var/lib/ppm/wal -fsync interval -checkpoint-every 5s
//	ppmserve -listen :7070 -wal-dir /var/lib/ppm/b -takeover :7071 -handoff-token s3cr3t
//	ppmserve -listen :7070 -wal-dir /var/lib/ppm/a -handoff-to host:7071 -handoff-token s3cr3t
//
// With -slide less than the window width the runtime serves sliding windows
// assembled from panes of the slide width (see README "Sliding windows").
// -snap prints a periodic serving snapshot line — events,
// windows, panes, overlap, answers — while traffic flows.
//
// With -budget the runtime runs the privacy-budget ledger (see README
// "Privacy accounting"): each stream is granted that much pattern-level ε
// per budget epoch, every released window charges -eps against it, and
// -budget-policy (deny | suppress | throttle | rotate-epoch) selects the
// exhaustion behavior. The final report then includes the ledger snapshot.
//
// With -wal-dir the runtime runs durably (see README "Durability"): every
// released window's ledger charge is written ahead to a WAL in that directory
// before the answer is published, -fsync (interval | always | off) selects
// the sync policy, and -checkpoint-every snapshots windower and ledger state
// on that cadence. Restarting against the same directory recovers: the start
// banner then reports the restored checkpoint, the replayed WAL tail, and the
// recovered privacy spend, and serving resumes from the restored budget
// epoch.
//
// SIGINT/SIGTERM shut the server down gracefully: producers stop, in-flight
// windows are drained and flushed through CloseContext — under -wal-dir the
// drain also writes a final checkpoint and spills resumable sessions beside
// the WAL — and the final report (including the budget snapshot) is printed.
// A second signal aborts.
//
// With -handoff-to the first signal performs a rolling restart instead of a
// plain drain (see README "Rolling restarts"): the server freezes at a pane
// boundary, spills parked sessions, streams the whole durable directory to a
// peer started with -takeover, and exits 0 only after the peer verifies and
// acks the transfer. The peer recovers the shipped partition — refusing to
// start if recovered spend would under-count the source's frozen spend —
// adopts the spilled sessions, and -reconnect clients resume against it with
// session tokens and sequence spaces intact.
//
// The -cpuprofile/-memprofile flags write pprof profiles of the serving run,
// so hot-path regressions can be diagnosed in the demo binary with
// `go tool pprof`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
	"patterndp/internal/synth"
)

func main() {
	var (
		shards    = flag.Int("shards", 8, "serving shards")
		streams   = flag.Int("streams", 32, "concurrent event streams")
		windows   = flag.Int("windows", 500, "windows generated per stream")
		eps       = flag.Float64("eps", 1.0, "pattern-level privacy budget")
		seed      = flag.Int64("seed", 1, "random seed")
		buffer    = flag.Int("buffer", 256, "per-shard ingest buffer")
		bp        = flag.String("backpressure", "block", "backpressure policy: block | drop-oldest")
		lateness  = flag.Int64("lateness", 0, "allowed lateness (>0 enables the reorder buffer)")
		horizon   = flag.Int64("horizon", 0, "max forward timestamp jump per stream (0 = unbounded)")
		churn     = flag.Float64("churn", 0, "control-plane churn: probe-query (un)registrations per second")
		batch     = flag.Int("batch", 1, "events per IngestBatch call (1 = per-event Ingest)")
		slide     = flag.Int64("slide", 0, "window slide in logical time (0 = window width, i.e. tumbling; must divide the width)")
		snap      = flag.Duration("snap", 0, "print a periodic serving snapshot at this interval (0 = off)")
		budget    = flag.Float64("budget", 0, "per-stream privacy-budget grant per epoch (0 = accounting off)")
		budgetPol = flag.String("budget-policy", "deny", "budget exhaustion policy: deny | suppress | throttle | rotate-epoch")
		walDir    = flag.String("wal-dir", "", "durable-state directory: WAL + checkpoints; recovers on start if non-empty (empty = durability off)")
		fsync     = flag.String("fsync", "interval", "WAL sync policy under -wal-dir: interval | always | off")
		ckptEvery = flag.Duration("checkpoint-every", 5*time.Second, "background checkpoint cadence under -wal-dir (0 = only on drain)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the serving run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")

		adminAddr   = flag.String("admin", "", "serve the admin HTTP endpoint (/metrics /healthz /readyz /statsz /debug/pprof) on this address (e.g. :9090)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of ingest batches lifecycle-traced end to end (0 = off, 1 = every batch); traced batches emit ppm.trace slog records and feed the ppm_trace_* histograms")

		listen       = flag.String("listen", "", "serve tenants over TCP on this address instead of replaying locally (e.g. :7070)")
		connect      = flag.String("connect", "", "run as a tenant client against a -listen server at this address")
		tenantName   = flag.String("tenant", "tenant-a", "tenant token presented by -connect")
		maxStreams   = flag.Int("max-streams", 0, "per-tenant distinct-stream quota under -listen (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound under -listen: in-flight flush and session wind-down")
		heartbeat    = flag.Duration("heartbeat", 10*time.Second, "liveness heartbeat interval under -listen; silent peers are reaped after 2x this (negative = off)")
		resumeWindow = flag.Duration("resume-window", 30*time.Second, "how long a disconnected session's replay state is kept for resume under -listen (negative = off)")
		replayBuffer = flag.Int("replay-buffer", 256, "per-subscription replay ring capacity under -listen; overflow surfaces as explicit gap markers")
		reconnect    = flag.Bool("reconnect", false, "under -connect: auto-reconnect with backoff and resume the session after transport failures")
		rateLimit    = flag.Float64("rate-limit", 0, "per-tenant ingest rate limit in events/s under -listen (0 = unlimited)")
		maxParked    = flag.Int("max-parked", 0, "server-wide cap on parked (disconnected, resumable) sessions under -listen; oldest evicted (0 = unlimited)")
		handoffTo    = flag.String("handoff-to", "", "under -listen with -wal-dir: on the first signal, freeze and hand the partition off to a -takeover peer at this address, then exit 0")
		takeover     = flag.String("takeover", "", "under -listen with -wal-dir: before serving, accept one partition handoff on this address into -wal-dir and adopt it")
		handoffToken = flag.String("handoff-token", "", "shared secret authenticating -handoff-to against -takeover (empty = unauthenticated)")
	)
	flag.Parse()
	if *listen != "" && *connect != "" {
		fmt.Fprintln(os.Stderr, "ppmserve: -listen and -connect are mutually exclusive")
		os.Exit(1)
	}
	if (*handoffTo != "" || *takeover != "") && (*listen == "" || *walDir == "") {
		fmt.Fprintln(os.Stderr, "ppmserve: -handoff-to/-takeover require -listen and -wal-dir")
		os.Exit(1)
	}
	// profiledRun keeps the profile defers on a frame that returns before
	// os.Exit, so a serving error still flushes a complete CPU profile.
	profiledRun := func() error {
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		switch {
		case *listen != "":
			ho := handoffOpts{To: *handoffTo, Takeover: *takeover, Token: *handoffToken}
			return runServer(*listen, *maxStreams, *drainTimeout, *heartbeat, *resumeWindow, *replayBuffer, *rateLimit, *maxParked, ho, *adminAddr, *traceSample, *shards, *eps, *seed, *buffer, *bp, *lateness, *horizon, *slide, *windows, *budget, *budgetPol, *walDir, *fsync, *ckptEvery)
		case *connect != "":
			return runClient(*connect, *tenantName, *streams, *windows, *batch, *seed, *reconnect)
		}
		return run(*shards, *streams, *windows, *eps, *seed, *buffer, *bp, *lateness, *horizon, *churn, *batch, *slide, *snap, *budget, *budgetPol, *walDir, *fsync, *ckptEvery, *adminAddr, *traceSample)
	}
	if err := profiledRun(); err != nil {
		fmt.Fprintln(os.Stderr, "ppmserve:", err)
		os.Exit(1)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppmserve:", err)
			os.Exit(1)
		}
		defer f.Close()
		goruntime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ppmserve:", err)
			os.Exit(1)
		}
	}
}

// buildRuntime assembles the runtime configuration shared by the replay and
// -listen modes: the synthetic dataset supplies the window width, private
// types, and (shared) target queries; the flags supply everything else. reg
// (which may be nil) receives the runtime's metrics and traceSample enables
// the sampled event-lifecycle trace.
func buildRuntime(shards int, eps float64, seed int64, buffer int, bp string, lateness, horizon int64, slide int64, windows int, budget float64, budgetPol, walDir, fsync string, ckptEvery time.Duration, reg *metrics.Registry, traceSample float64) (*runtime.Runtime, *synth.Dataset, synth.Config, error) {
	policy, err := account.ParsePolicy(budgetPol)
	if err != nil {
		return nil, nil, synth.Config{}, err
	}
	scfg := synth.DefaultConfig(seed)
	scfg.NumWindows = windows
	ds, err := synth.Generate(scfg)
	if err != nil {
		return nil, nil, synth.Config{}, err
	}
	cfg := runtime.Config{
		Shards:      shards,
		WindowWidth: scfg.WindowWidth,
		Slide:       event.Timestamp(slide),
		// The set-aware factory keeps the budget split coherent across
		// control-plane epochs (and enables RegisterPrivate).
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(eps), private...)
		},
		Private:      ds.PrivateTypes(),
		Targets:      ds.TargetQueries(),
		Seed:         seed,
		ShardBuffer:  buffer,
		Budget:       dp.Epsilon(budget),
		BudgetPolicy: policy,
		Metrics:      reg,
		TraceSample:  traceSample,
	}
	switch bp {
	case "block":
		cfg.Backpressure = runtime.Block
	case "drop-oldest":
		cfg.Backpressure = runtime.DropOldest
	default:
		return nil, nil, synth.Config{}, fmt.Errorf("unknown backpressure policy %q", bp)
	}
	if lateness > 0 {
		cfg.Lateness = runtime.ReorderBuffer
		cfg.AllowedLateness = event.Timestamp(lateness)
	}
	cfg.Horizon = event.Timestamp(horizon)
	if walDir != "" {
		fp, err := runtime.ParseFsyncPolicy(fsync)
		if err != nil {
			return nil, nil, synth.Config{}, err
		}
		cfg.Durability = &runtime.DurabilityConfig{
			Dir:             walDir,
			Fsync:           fp,
			CheckpointEvery: ckptEvery,
		}
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, nil, synth.Config{}, err
	}
	if rec := rt.Recovery(); rec != nil {
		// The recovery summary: where serving resumes from, how much of it
		// came from WAL replay, and the spend delta the replay re-charged on
		// top of the checkpoint.
		fmt.Printf("recovered %s: checkpoint %d, budget epoch %d (control %d), %d streams\n",
			walDir, rec.CheckpointID, rec.BudgetEpoch, rec.Epoch, rec.Streams)
		fmt.Printf("recovered spend: %.4g restored + %.4g replayed from %d WAL records (%d registrations)\n",
			float64(rec.RestoredSpend), float64(rec.ReplayedSpend), rec.ReplayedRecords, rec.Registrations)
		if rec.Truncated || rec.SkippedCheckpoints > 0 {
			fmt.Printf("recovered after crash: torn WAL tail ignored (%d corrupt checkpoints skipped)\n",
				rec.SkippedCheckpoints)
		}
	}
	return rt, ds, scfg, nil
}

func run(shards, streams, windows int, eps float64, seed int64, buffer int, bp string, lateness, horizon int64, churn float64, batch int, slide int64, snap time.Duration, budget float64, budgetPol, walDir, fsync string, ckptEvery time.Duration, adminAddr string, traceSample float64) error {
	if batch < 1 {
		return fmt.Errorf("batch size %d must be >= 1", batch)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the producers so
	// CloseContext can drain in-flight windows and the final report (with
	// the budget snapshot) still prints; a second signal aborts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Local replay only pays for observability when asked: the registry
	// exists iff -admin or -trace-sample is set.
	var reg *metrics.Registry
	if adminAddr != "" || traceSample > 0 {
		reg = metrics.NewRegistry()
	}
	rt, ds, scfg, err := buildRuntime(shards, eps, seed, buffer, bp, lateness, horizon, slide, windows, budget, budgetPol, walDir, fsync, ckptEvery, reg, traceSample)
	if err != nil {
		return err
	}
	if adminAddr != "" {
		closeAdmin, err := startAdmin(adminAddr, server.NewAdmin(server.AdminConfig{Registry: reg, Runtime: rt}))
		if err != nil {
			rt.Close()
			return err
		}
		defer closeAdmin()
	}
	base := ds.Events()
	targets := ds.TargetQueries()
	if slide > 0 && event.Timestamp(slide) != scfg.WindowWidth {
		fmt.Printf("serving %d streams x %d events across %d shards, eps=%g — sliding windows width %d slide %d (overlap %d, pane-assembled)\n",
			streams, len(base), shards, eps, scfg.WindowWidth, slide, rt.Snapshot().Overlap)
	} else {
		fmt.Printf("serving %d streams x %d events (%d windows each) across %d shards, eps=%g\n",
			streams, len(base), windows, shards, eps)
	}

	// Periodic serving snapshot: one line per interval with the pane and
	// overlap counters alongside the usual serving totals.
	snapStop := make(chan struct{})
	var snapper sync.WaitGroup
	if snap > 0 {
		snapper.Add(1)
		go func() {
			defer snapper.Done()
			tick := time.NewTicker(snap)
			defer tick.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-tick.C:
				}
				st := rt.Snapshot()
				tot := st.Totals()
				fmt.Printf("snapshot t=%v events=%d windows=%d panes=%d overlap=%d answers=%d dropped=%d/%d/%d\n",
					st.Uptime.Round(time.Millisecond), tot.EventsIn, tot.WindowsClosed, tot.PanesClosed,
					st.Overlap, tot.AnswersEmitted, tot.DroppedLate, tot.DroppedFuture, tot.DroppedIngest)
			}
		}()
	}

	// One subscriber per target query, counting detections (and, under a
	// budget, suppressed placeholder releases).
	type tally struct {
		answers, detected, suppressed int
	}
	tallies := make([]tally, len(targets))
	var consumers sync.WaitGroup
	for qi, q := range targets {
		// Subscribe before any producer starts so no answer is missed.
		sub, err := rt.Subscribe(q.Name)
		if err != nil {
			return err
		}
		consumers.Add(1)
		go func(qi int) {
			defer consumers.Done()
			for a := range sub.C() {
				tallies[qi].answers++
				if a.Suppressed {
					tallies[qi].suppressed++
				} else if a.Detected {
					tallies[qi].detected++
				}
			}
		}(qi)
	}

	// Control-plane churn: register and unregister a probe query at the
	// requested rate while traffic flows, bumping the epoch each time.
	churnStop := make(chan struct{})
	var churner sync.WaitGroup
	if churn > 0 {
		probe := cep.Query{Name: "churn-probe", Pattern: ds.TargetQueries()[0].Pattern, Window: scfg.WindowWidth}
		tick := time.NewTicker(time.Duration(float64(time.Second) / churn))
		churner.Add(1)
		go func() {
			defer churner.Done()
			defer tick.Stop()
			registered := false
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				var err error
				if registered {
					_, err = rt.UnregisterQuery(probe)
				} else {
					_, err = rt.RegisterQuery(probe)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "churn:", err)
					return
				}
				registered = !registered
			}
		}()
	}

	// One producer per stream, replaying the synthetic feed under its own
	// stream key — batched through IngestBatch when -batch > 1. The signal
	// context cancels producers mid-feed on SIGINT/SIGTERM.
	var producers sync.WaitGroup
	for i := 0; i < streams; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			key := fmt.Sprintf("stream-%03d", i)
			buf := make([]event.Event, 0, batch)
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				if err := rt.IngestBatchContext(ctx, buf); err != nil {
					if !errors.Is(err, context.Canceled) {
						fmt.Fprintln(os.Stderr, "ingest:", err)
					}
					return false
				}
				buf = buf[:0]
				return true
			}
			for _, e := range base {
				buf = append(buf, e.WithSource(key))
				if len(buf) == batch && !flush() {
					return
				}
			}
			flush()
		}(i)
	}
	producers.Wait()
	close(churnStop)
	churner.Wait()
	close(snapStop)
	snapper.Wait()
	interrupted := ctx.Err() != nil
	if interrupted {
		fmt.Println("\ninterrupted — draining in-flight windows (signal again to abort)")
	}
	// Drain and flush through CloseContext so trailing windows are still
	// answered; a second signal (fresh NotifyContext) abandons the wait.
	// Keep the Close error for after the report: on a shard failure the
	// counters below are exactly what explains it.
	closeCtx, closeStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer closeStop()
	closeErr := rt.CloseContext(closeCtx)
	if closeErr != nil && errors.Is(closeErr, context.Canceled) {
		return fmt.Errorf("aborted while draining")
	}
	consumers.Wait()

	st := rt.Snapshot()
	tot := st.Totals()
	fmt.Printf("\nserved %d events in %v — %.0f events/s\n", tot.EventsIn, st.Uptime.Round(1000000), st.Throughput())
	if churn > 0 {
		// Idle shards never reach a window boundary and so never apply an
		// epoch; report convergence over the shards that actually served.
		applied, first := runtime.Epoch(0), true
		for _, s := range st.Shards {
			if s.EventsIn == 0 {
				continue
			}
			if first || s.Epoch < applied {
				applied, first = s.Epoch, false
			}
		}
		fmt.Printf("control-plane epochs: %d (slowest serving shard applied %d)\n", st.Epoch, applied)
	}
	if st.Overlap > 1 {
		fmt.Printf("windows: %d served at overlap %d from %d panes\n", tot.WindowsClosed, st.Overlap, tot.PanesClosed)
	}
	bal := st.Balance()
	fmt.Printf("shard balance: mean %.0f events/shard, stddev %.0f, min %.0f, max %.0f\n",
		bal.Mean, bal.StdDev, bal.Min, bal.Max)
	if st.RunsDropped > 0 {
		fmt.Printf("matcher pressure: %d partial matches evicted (raise maxRuns or narrow queries)\n", st.RunsDropped)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nshard\tstreams\tevents\twindows\tpanes\tanswers\tdropped(late/future/ingest)")
	for _, s := range st.Shards {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d/%d/%d\n",
			s.Shard, s.Streams, s.EventsIn, s.WindowsClosed, s.PanesClosed, s.AnswersEmitted,
			s.DroppedLate, s.DroppedFuture, s.DroppedIngest)
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\t%d\t%d/%d/%d\n",
		tot.Streams, tot.EventsIn, tot.WindowsClosed, tot.PanesClosed, tot.AnswersEmitted,
		tot.DroppedLate, tot.DroppedFuture, tot.DroppedIngest)
	tw.Flush()
	if tot.Failed {
		fmt.Println("WARNING: one or more shards failed; see the Close error")
	}

	fmt.Println("\nper-query detection rates:")
	for qi, q := range targets {
		rate := 0.0
		if tallies[qi].answers > 0 {
			rate = float64(tallies[qi].detected) / float64(tallies[qi].answers)
		}
		if b := st.Budget; b != nil && tallies[qi].suppressed > 0 {
			fmt.Printf("  %-12s %6d answers, %5.1f%% detected, %d suppressed\n",
				q.Name, tallies[qi].answers, 100*rate, tallies[qi].suppressed)
		} else {
			fmt.Printf("  %-12s %6d answers, %5.1f%% detected\n", q.Name, tallies[qi].answers, 100*rate)
		}
	}
	if b := st.Budget; b != nil {
		fmt.Printf("\nprivacy budget (policy %s, epoch %d): grant %g per stream, charge %g per window\n",
			b.Policy, b.Epoch, float64(b.Grant), float64(b.Charge))
		fmt.Printf("  spend: total %.4g (retired %.4g), max stream %.4g, w-event composed max %.4g (overlap %d)\n",
			float64(b.Spent), float64(b.Retired), float64(b.MaxStreamSpent), float64(b.MaxComposed), b.Overlap)
		fmt.Printf("  decisions: %d admitted, %d denied, %d suppressed, %d throttled; %d/%d streams exhausted; %d rotations\n",
			b.Admitted, b.Denied, b.Suppressed, b.Throttled, b.Exhausted, b.Streams, b.Rotations)
		for _, q := range b.PerQuery {
			fmt.Printf("  query %-12s attributed eps %.4g\n", q.Query, float64(q.Eps))
		}
	}
	if walDir != "" && closeErr == nil {
		fmt.Printf("\ndurable state checkpointed to %s (fsync %s) — restart with the same -wal-dir to resume\n", walDir, fsync)
	}
	return closeErr
}
