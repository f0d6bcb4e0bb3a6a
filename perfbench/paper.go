package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"time"

	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/experiment"
	"patterndp/internal/synth"
)

// paperSetups is how many times the paper workload prepares its benches;
// the median is its set-up time.
const paperSetups = 11

// paperConfig is the reduced Fig. 4 configuration of the repository's
// BenchmarkFig4* functions: 2 reps, 2 synthetic datasets of 400 windows,
// 30 taxis x 300 ticks on a 10x10 grid, 10 adaptive iterations, over the
// datasets of seed 1. The run's seed drives the adaptive fit's sampled
// estimates only: at this size the datasets of different seeds differ so
// much in work and in MRE (both spread by more than half of their median
// across five seeds) that no bound could hold on them.
func paperConfig(seed int64) experiment.Fig4Config {
	cfg := experiment.DefaultFig4Config(1)
	cfg.Adaptive.Seed = seed
	cfg.Reps = 2
	cfg.SynthDatasets = 2
	cfg.TaxiCfg.GridW, cfg.TaxiCfg.GridH = 10, 10
	cfg.TaxiCfg.NumTaxis = 30
	cfg.TaxiCfg.Ticks = 300
	cfg.Adaptive.MaxIters = 10
	scfg := synth.DefaultConfig(0)
	scfg.NumWindows = 400
	cfg.SynthCfg = scfg
	return cfg
}

// paperBench is one prepared bench and the sweep seed Fig4Taxi or
// Fig4Synthetic uses for it.
type paperBench struct {
	bench *experiment.Bench
	seed  int64
}

// buildBenches prepares the benches exactly as Fig4Taxi and Fig4Synthetic
// do, timing each build.
func buildBenches(cfg experiment.Fig4Config, buildMs *[]float64) ([]paperBench, error) {
	start := now()
	tb, err := experiment.TaxiBench(cfg.TaxiCfg, cfg.TaxiWindowTicks, cfg.WEventW, cfg.Alpha)
	if err != nil {
		return nil, fmt.Errorf("taxi bench: %w", err)
	}
	*buildMs = append(*buildMs, float64(now()-start)/1e6)
	out := []paperBench{{tb, cfg.Seed}}
	for d := 0; d < cfg.SynthDatasets; d++ {
		scfg := cfg.SynthCfg
		scfg.Seed = cfg.Seed + int64(d)*7919
		start := now()
		sb, err := experiment.SynthBench(scfg, cfg.WEventW, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("synthetic bench %d: %w", d, err)
		}
		*buildMs = append(*buildMs, float64(now()-start)/1e6)
		out = append(out, paperBench{sb, cfg.Seed + int64(d)})
	}
	return out, nil
}

// evalEvents is the number of events in a bench's evaluation windows.
func evalEvents(b *experiment.Bench) int64 {
	var n int64
	for _, w := range b.Eval {
		for _, c := range w.Counts {
			n += int64(c)
		}
	}
	return n
}

// sweep computes every Fig. 4 cell of the benches, one RunSweep call per
// (mechanism, ε) so each cell — one point of the figure — is timed on its
// own. Per-repetition seeds depend only on (seed, mechanism, ε, rep), so
// the cells equal those of a whole-grid sweep. It returns the taxi cells
// and the synthetic cells merged across datasets, as Fig4Taxi and
// Fig4Synthetic report them.
func sweep(cfg experiment.Fig4Config, benches []paperBench, cellMs *[]float64, events *int64) (taxi, synthetic []experiment.Result, err error) {
	var groups [][]experiment.Result
	for i, pb := range benches {
		var rs []experiment.Result
		for _, spec := range experiment.Fig4Specs() {
			for _, eps := range cfg.Epsilons {
				start := now()
				cell, err := experiment.RunSweep(pb.bench, experiment.SweepConfig{
					Epsilons: []dp.Epsilon{eps},
					Specs:    []experiment.MechanismSpec{spec},
					Reps:     cfg.Reps,
					Seed:     pb.seed,
					Adaptive: cfg.Adaptive,
				})
				if err != nil {
					return nil, nil, err
				}
				*cellMs = append(*cellMs, float64(now()-start)/1e6)
				*events += int64(cfg.Reps) * evalEvents(pb.bench)
				rs = append(rs, cell...)
			}
		}
		if i == 0 {
			taxi = rs
		} else {
			groups = append(groups, rs)
		}
	}
	return taxi, experiment.MergeResults(groups...), nil
}

// sameCells reports the first difference between two result lists.
func sameCells(what string, got, want []experiment.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d cells, Fig. 4 reports %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Mechanism != w.Mechanism || g.Epsilon != w.Epsilon || g.MRE.Mean != w.MRE.Mean || g.Quality.Mean != w.Quality.Mean {
			return fmt.Errorf("%s cell %d: %s eps=%v MRE %.17g, Fig. 4 reports %s eps=%v MRE %.17g",
				what, i, g.Mechanism, g.Epsilon, g.MRE.Mean, w.Mechanism, w.Epsilon, w.MRE.Mean)
		}
	}
	return nil
}

// meanMRE averages a mechanism's MRE over every cell of the lists.
func meanMRE(spec experiment.MechanismSpec, lists ...[]experiment.Result) float64 {
	var xs []float64
	for _, rs := range lists {
		for _, r := range rs {
			if r.Mechanism == spec {
				xs = append(xs, r.MRE.Mean)
			}
		}
	}
	return mean(xs)
}

// runPaper is the paper-fig4 workload: prepare the benches (set-up), sweep
// the Fig. 4 grid for the timed phase, then check the cells against
// experiment.Fig4Taxi and Fig4Synthetic.
func runPaper(seed int64, dur time.Duration, traced bool) (*report, error) {
	rep := newReport()
	cfg := paperConfig(seed)
	var setups, buildMs []float64
	var benches []paperBench
	for i := 0; i < paperSetups; i++ {
		start := now()
		bs, err := buildBenches(cfg, &buildMs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (now() - start).Seconds())
		benches = bs
	}

	var cellMs []float64
	var events int64
	var taxi, synthetic []experiment.Result
	var mem0, mem1 goruntime.MemStats
	goruntime.ReadMemStats(&mem0)
	heap := startHeapSampler(phase{0, 1 << 62})
	// Each sweep's rate is kept: the run reports their median, so a sweep
	// slowed by other load on the host moves the figure less.
	var rates, sweepSecs []float64
	start := now()
	iters := 0
	for iters == 0 || now()-start < dur {
		sweepStart, before := now(), events
		tx, sy, err := sweep(cfg, benches, &cellMs, &events)
		if err != nil {
			heap.finish()
			return nil, err
		}
		secs := (now() - sweepStart).Seconds()
		sweepSecs = append(sweepSecs, secs)
		rates = append(rates, float64(events-before)/secs)
		if iters == 0 {
			taxi, synthetic = tx, sy
		} else if err := errors.Join(sameCells("repeat taxi", tx, taxi), sameCells("repeat synthetic", sy, synthetic)); err != nil {
			rep.bad.addf("sweep not deterministic: %v", err)
		}
		iters++
	}
	elapsed := now() - start
	peak := heap.finish()
	goruntime.ReadMemStats(&mem1)

	// The reference: the repository's own Fig. 4 entry points.
	refStart := now()
	refTaxi, err := experiment.Fig4Taxi(cfg)
	if err != nil {
		return nil, err
	}
	refSynth, err := experiment.Fig4Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	sweepS := (now() - refStart).Seconds()
	if err := errors.Join(sameCells("taxi", taxi, refTaxi), sameCells("synthetic", synthetic, refSynth)); err != nil {
		rep.bad.addf("MRE cells differ from experiment.Fig4*: %v", err)
	}
	rep.attempted = int64(len(cellMs) + len(refTaxi) + len(refSynth))

	p50, p99 := quantile(cellMs, 0.5), quantile(cellMs, 0.99)
	rep.set("events_per_s", median(rates), "1/s", int(events))
	rep.set("answer_latency_p50_ms", p50, "ms", len(cellMs))
	rep.set("answer_latency_p99_ms", p99, "ms", len(cellMs))
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("heap_peak_mb", float64(peak)/1e6, "MB", 0)
	rep.set("mre_uniform", meanMRE(experiment.SpecUniform, refTaxi, refSynth), "ratio", len(refTaxi)+len(refSynth))
	rep.set("mre_adaptive", meanMRE(experiment.SpecAdaptive, refTaxi, refSynth), "ratio", len(refTaxi)+len(refSynth))
	rep.set("sweep_s", sweepS, "s", 1)
	rep.set("experiment.bench_build_ms", median(buildMs), "ms", len(buildMs))
	rep.set("process.allocs_per_event", float64(mem1.Mallocs-mem0.Mallocs)/float64(max(events, 1)), "allocs/event", 0)
	rep.set("process.gc_pause_ms_total", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms", 0)
	rep.notef("paper-fig4: %d sweep(s) of %d cells, seconds %.3f; events_per_s is the median sweep's rate of evaluation-window events released by the cells' repetitions; answer latency is one figure cell (one RunSweep call)",
		iters, len(cellMs)/iters, sweepSecs)
	rep.notef("Fig. 4 reference (experiment.Fig4Taxi + Fig4Synthetic): %.2fs", sweepS)
	experiment.WriteTable(os.Stdout, "Fig. 4 (left): MRE vs eps — Taxi", refTaxi)
	experiment.WriteTable(os.Stdout, "Fig. 4 (right): MRE vs eps — synthetic", refSynth)
	if traced {
		if err := paperLayers(rep, cfg, benches, elapsed/time.Duration(iters)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// paperLayers is the traced pass of the paper workload: one sweep over the
// same benches with every call into core, baseline and the quality measure
// timed on its own.
func paperLayers(rep *report, cfg experiment.Fig4Config, benches []paperBench, untracedIter time.Duration) error {
	var fitMs []float64
	var relNs, baseNs, qualNs float64
	var relWins, baseWins, qualWins int64
	var dpNs float64
	var dpCalls int64
	start := now()
	for _, pb := range benches {
		b := pb.bench
		for _, spec := range experiment.Fig4Specs() {
			for _, eps := range cfg.Epsilons {
				t0 := now()
				mech, err := b.BuildMechanism(spec, eps, cfg.Adaptive)
				if err != nil {
					return err
				}
				if spec == experiment.SpecAdaptive {
					fitMs = append(fitMs, float64(now()-t0)/1e6)
				}
				for rep := 0; rep < cfg.Reps; rep++ {
					rng := rand.New(rand.NewSource(int64(rep) + 1))
					t1 := now()
					released := mech.Run(rng, b.Eval)
					d := float64(now() - t1)
					if spec == experiment.SpecUniform || spec == experiment.SpecAdaptive {
						relNs += d
						relWins += int64(len(b.Eval))
					} else {
						baseNs += d
						baseWins += int64(len(b.Eval))
					}
					t2 := now()
					core.MeasuredQuality(b.Eval, released, b.Targets, b.Alpha)
					qualNs += float64(now() - t2)
					qualWins += int64(len(b.Eval))
				}
				if spec == experiment.SpecAdaptive {
					flips := mech.(*core.AdaptivePPM).FlipProbs()
					rng := rand.New(rand.NewSource(1))
					for _, w := range b.History {
						for _, target := range b.Targets {
							t3 := now()
							core.DetectionProbability(target, w.Present, flips, rng)
							dpNs += float64(now() - t3)
							dpCalls++
						}
					}
				}
			}
		}
	}
	// The detection-probability calls are extra work, not tracing cost.
	traced := now() - start - time.Duration(dpNs)
	rep.set("core.adaptive_fit_ms", median(fitMs), "ms", len(fitMs))
	rep.set("core.release_ns_per_window", relNs/float64(max(relWins, 1)), "ns/window", int(relWins))
	rep.set("baseline.release_ns_per_window", baseNs/float64(max(baseWins, 1)), "ns/window", int(baseWins))
	rep.set("core.quality_ns_per_window", qualNs/float64(max(qualWins, 1)), "ns/window", int(qualWins))
	rep.set("core.detection_probability_ns_per_call", dpNs/float64(max(dpCalls, 1)), "ns/call", int(dpCalls))
	rep.set("trace.overhead_ratio", traced.Seconds()/untracedIter.Seconds()-1, "ratio", 1)
	rep.notef("traced pass: %.2fs against %.2fs per untraced sweep (tracing overhead %+.1f%%)",
		traced.Seconds(), untracedIter.Seconds(), 100*(traced.Seconds()/untracedIter.Seconds()-1))
	notExercised(rep)
	return nil
}
