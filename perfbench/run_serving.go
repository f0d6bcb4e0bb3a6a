package main

import "time"

// Serving run shape: half a second of warm-up before the timed phase, and
// the set-up repeated so its median is reported.
const (
	servingWarmup = 500 * time.Millisecond
	servingSetups = 5
)

// servingFigures are the end-to-end figures of one pass over TCP.
type servingFigures struct {
	eventsPerS            float64
	ansP50, ansP99        float64 // ms
	ansN                  int
	ackP50, ackP99        float64 // ms
	ackN                  int
	lagP50, lagP99        float64 // ms
	lagN                  int
	rttP50, rttP99        float64 // us
	failedRatio           float64
	attempted, failed     int64
	failedBatches, gapped int64
	allocsPerEvent, gcMs  float64
	heapMB                float64
	eventsInPhase         int64
}

func figures(res *tcpResult) servingFigures {
	var f servingFigures
	ms := func(ns float64) float64 { return ns / 1e6 }
	p50, cnt := res.ansLat.sliced(0.50)
	p99, _ := res.ansLat.sliced(0.99)
	f.ansP50, f.ansP99, f.ansN = ms(p50), ms(p99), cnt
	p50, cnt = res.load.ackLat.sliced(0.50)
	p99, _ = res.load.ackLat.sliced(0.99)
	f.ackP50, f.ackP99, f.ackN = ms(p50), ms(p99), cnt
	p50, cnt = res.load.lag.sliced(0.50)
	p99, _ = res.load.lag.sliced(0.99)
	f.lagP50, f.lagP99, f.lagN = ms(p50), ms(p99), cnt
	p50, _ = res.load.rtt.sliced(0.50)
	p99, _ = res.load.rtt.sliced(0.99)
	f.rttP50, f.rttP99 = p50/1e3, p99/1e3
	var batches int64
	for _, tl := range res.load.tenants {
		f.eventsInPhase += tl.events.Load()
		batches += tl.sent.Load()
		f.failedBatches += tl.failed.Load()
	}
	f.eventsPerS = res.load.ackLat.sliceRate(float64(res.load.tenants[0].gen.spec.batch))
	var delivered int64
	for t := range res.checks {
		for _, c := range res.checks[t] {
			delivered += c.delivered
			f.gapped += c.gapped
		}
	}
	f.attempted = batches + res.expected
	f.failed = f.failedBatches + (res.expected - delivered)
	f.failedRatio = float64(f.failed) / float64(max(1, f.attempted))
	if f.eventsInPhase > 0 {
		f.allocsPerEvent = float64(res.mem1.Mallocs-res.mem0.Mallocs) / float64(f.eventsInPhase)
	}
	f.gcMs = float64(res.mem1.PauseTotalNs-res.mem0.PauseTotalNs) / 1e6
	f.heapMB = res.heapPeak / 1e6
	return f
}

// checkServing runs the correctness checks of one TCP pass into rep and
// returns the served answers' MRE and the truth table used.
func checkServing(rep *report, spec servingSpec, res *tcpResult) (float64, *truthTable, error) {
	for t := range res.checks {
		for _, c := range res.checks[t] {
			rep.bad.merge(&c.bad)
		}
	}
	for _, tl := range res.load.tenants {
		if e := tl.firstErr.Load(); e != nil {
			rep.notef("tenant ingest error (counted as failed): %v", e)
		}
	}
	if res.rtStats.Totals().Failed {
		rep.bad.addf("a runtime shard failed")
	}
	qs, err := spec.parseQueries()
	if err != nil {
		return 0, nil, err
	}
	mech := mechanism()
	tt := newTruthTable(qs, mech.FlipProbs())
	var groups []noiseInput
	for t := range res.checks {
		for _, c := range res.checks[t] {
			in := noiseInput{chk: c, mask: res.load.tenants[t].gen.windowMask}
			tt.prepare(in.masks())
			groups = append(groups, in)
		}
	}
	nr, err := checkNoise(tt, groups, qualityAlpha)
	if err != nil {
		return 0, nil, err
	}
	rep.notef("noise check: %d of %d answers differ from the identity truth; the mechanism predicts %.0f ± %.0f",
		nr.mismatches, nr.answers, nr.expected, nr.bound)
	if !nr.ok() {
		rep.bad.addf("Detected-vs-truth mismatches %d outside %.0f ± %.0f predicted by the flip probabilities",
			nr.mismatches, nr.expected, nr.bound)
	}
	if nr.answers == 0 {
		rep.bad.addf("no answers delivered")
	}
	// Final ledger position per tenant: every closed window admitted once.
	if spec.budget {
		charge := float64(mech.TotalEpsilon())
		for _, ts := range res.srvStats.Tenants {
			t := -1
			for i, name := range tenantNames {
				if name == ts.Tenant {
					t = i
				}
			}
			if t < 0 {
				rep.bad.addf("unknown tenant %q in server stats", ts.Tenant)
				continue
			}
			want := float64(int64(spec.streams)*res.windows[t]) * charge
			if d := float64(ts.Spend.Spent) - want; d > 1e-6*want || d < -1e-6*want {
				rep.bad.addf("tenant %s spent %.6g, want %d streams x %d windows x %g = %.6g",
					ts.Tenant, float64(ts.Spend.Spent), spec.streams, res.windows[t], charge, want)
			}
			if float64(ts.Spend.MaxStreamSpent) > serveGrant {
				rep.bad.addf("tenant %s stream spent %.6g past the grant %g", ts.Tenant, float64(ts.Spend.MaxStreamSpent), serveGrant)
			}
		}
	}
	if res.lost > 0 {
		rep.notef("%d answers lost without a gap marker", res.lost)
	}
	return nr.mre, tt, nil
}

// servingRound is the length of one measured round. A run of --seconds
// makes seconds/servingRound rounds, each on a fresh instance with its own
// set-ups, warm-up and drain, and reports the median of each figure across
// rounds: the state one instance settles into (goroutine placement, GC
// pacing, where the two open-loop schedules fall against each other) moves
// latency by more than the run-to-run bounds allow, and a median over
// independent instances averages it out.
const servingRound = 4 * time.Second

// runServing is the untraced run: the end-to-end metrics.
func runServing(spec servingSpec, seed int64, dur time.Duration, walDir string) (*report, error) {
	rep := newReport()
	rounds := max(1, int(dur/servingRound))
	var figs []servingFigures
	var mres, setups []float64
	var expected, lost int64
	for i := 0; i < rounds; i++ {
		res, err := runTCP(spec, seed, servingWarmup, dur/time.Duration(rounds), servingSetups, false, walDir)
		if err != nil {
			return nil, err
		}
		mre, _, err := checkServing(rep, spec, res)
		if err != nil {
			return nil, err
		}
		f := figures(res)
		figs = append(figs, f)
		mres = append(mres, mre)
		setups = append(setups, res.setupRuns...)
		expected += res.expected
		lost += res.lost
		rep.notef("round %d: events_per_s %.0f, answer latency p50 %.4f ms p99 %.4f ms, ingest ack p50 %.4f ms, %d of %d operations failed",
			i+1, f.eventsPerS, f.ansP50, f.ansP99, f.ackP50, f.failed, f.attempted)
	}
	setEndToEnd(rep, figs, mres, setups, expected, lost)
	return rep, nil
}

// medianOf is the median of one figure across rounds.
func medianOf(figs []servingFigures, get func(servingFigures) float64) float64 {
	xs := make([]float64, len(figs))
	for i, f := range figs {
		xs[i] = get(f)
	}
	return median(xs)
}

func setEndToEnd(rep *report, figs []servingFigures, mres, setups []float64, expected, lost int64) {
	var events, failedBatches, gapped int64
	var ansN, ackN, lagN int
	var heaps []float64
	for _, f := range figs {
		rep.attempted += f.attempted
		rep.failed += f.failed
		events += f.eventsInPhase
		failedBatches += f.failedBatches
		gapped += f.gapped
		ansN += f.ansN
		ackN += f.ackN
		lagN += f.lagN
		heaps = append(heaps, f.heapMB)
	}
	rep.set("events_per_s", medianOf(figs, func(f servingFigures) float64 { return f.eventsPerS }), "1/s", int(events))
	rep.set("answer_latency_p50_ms", medianOf(figs, func(f servingFigures) float64 { return f.ansP50 }), "ms", ansN)
	rep.set("answer_latency_p99_ms", medianOf(figs, func(f servingFigures) float64 { return f.ansP99 }), "ms", ansN)
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("heap_peak_mb", median(heaps), "MB", len(heaps))
	rep.set("mre_uniform", median(mres), "ratio", int(expected))
	rep.set("ingest_ack_p50_ms", medianOf(figs, func(f servingFigures) float64 { return f.ackP50 }), "ms", ackN)
	rep.set("ingest_ack_p99_ms", medianOf(figs, func(f servingFigures) float64 { return f.ackP99 }), "ms", ackN)
	rep.set("generator_lag_p99_ms", medianOf(figs, func(f servingFigures) float64 { return f.lagP99 }), "ms", lagN)
	rep.set("failed_ops_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", int(rep.attempted))
	rep.notef("operations: %d attempted (%d batches + %d expected answers), %d failed (%d batches, %d answers gapped, %d lost)",
		rep.attempted, rep.attempted-expected, expected, rep.failed, failedBatches, gapped, lost)
	rep.notef("percentiles: per round, the median over half-second slices of the timed phase (longer slices when one would hold under %d samples); figures: the median across %d rounds", minPerSlice, len(figs))
}
