package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerUnits are the per-layer metrics and their units, as BENCHMARK.json
// declares them. A workload that bypasses a layer reports it as 0.
var layerUnits = map[string]string{
	"wire.ingest_encode_ns_per_event":        "ns/event",
	"wire.ingest_decode_ns_per_event":        "ns/event",
	"wire.bytes_per_event":                   "bytes/event",
	"server.ingest_rtt_p50_us":               "us",
	"server.ingest_rtt_p99_us":               "us",
	"server.ingest_self_ns_per_event":        "ns/event",
	"runtime.ingest_batch_ns_per_event":      "ns/event",
	"runtime.shard_skew":                     "ratio",
	"runtime.windower_ns_per_event":          "ns/event",
	"runtime.windows_per_event":              "ratio",
	"runtime.panes_per_event":                "ratio",
	"runtime.serve_p50_us":                   "us",
	"runtime.serve_p99_us":                   "us",
	"runtime.hop_self_us_per_batch":          "us/batch",
	"runtime.backlog_events_max":             "count",
	"runtime.dropped_events":                 "count",
	"core.process_ns_per_window":             "ns/window",
	"core.process_allocs_per_window":         "allocs/window",
	"account.decide_ns_per_window":           "ns/window",
	"account.admitted_ratio":                 "ratio",
	"durable.stage_ns_per_window":            "ns/window",
	"durable.commit_us_per_batch":            "us/batch",
	"durable.bytes_per_window":               "bytes/window",
	"durable.checkpoint_ms":                  "ms",
	"wire.answer_encode_ns_per_answer":       "ns/answer",
	"wire.answer_decode_ns_per_answer":       "ns/answer",
	"wire.bytes_per_answer":                  "bytes/answer",
	"server.deliver_self_us_per_answer":      "us/answer",
	"server.answers_dropped":                 "count",
	"experiment.bench_build_ms":              "ms",
	"core.adaptive_fit_ms":                   "ms",
	"core.detection_probability_ns_per_call": "ns/call",
	"core.release_ns_per_window":             "ns/window",
	"baseline.release_ns_per_window":         "ns/window",
	"core.quality_ns_per_window":             "ns/window",
	"process.allocs_per_event":               "allocs/event",
	"process.gc_pause_ms_total":              "ms",
	"answer_latency_p99_ms":                  "ms",
	"ingest_ack_p50_ms":                      "ms",
	"ingest_ack_p99_ms":                      "ms",
	"generator_lag_p99_ms":                   "ms",
	"failed_ops_ratio":                       "ratio",
	"sweep_s":                                "s",
	"mre_adaptive":                           "ratio",
	"trace.residual_ms":                      "ms",
	"trace.overhead_ratio":                   "ratio",
}

// notExercised reports every per-layer metric the workload has not set as
// 0: the layer is bypassed.
func notExercised(rep *report) {
	for name, unit := range layerUnits {
		if _, ok := rep.metrics[name]; !ok {
			rep.set(name, 0, unit, 0)
		}
	}
}

// componentEvents bounds the component replay to about two million events.
const componentEvents = 2_000_000

// runServingTraced is the traced run of a serving workload: an untraced
// pass (the reference for the tracing overhead and the source of the
// load-side figures), a traced pass over TCP keeping per-answer spans, a
// runtime-only replay and a single-threaded component replay of the same
// batches.
func runServingTraced(spec servingSpec, seed int64, dur time.Duration, walDir, workDir string) (*report, error) {
	rep := newReport()
	res0, err := runTCP(spec, seed, servingWarmup, dur, 1, false, walDir)
	if err != nil {
		return nil, err
	}
	_, tt, err := checkServing(rep, spec, res0)
	if err != nil {
		return nil, err
	}
	f0 := figures(res0)

	res1, err := runTCP(spec, seed, servingWarmup, dur, 1, true, walDir)
	if err != nil {
		return nil, err
	}
	if _, _, err := checkServing(rep, spec, res1); err != nil {
		return nil, err
	}
	f1 := figures(res1)
	rep.attempted = f0.attempted + f1.attempted
	rep.failed = f0.failed + f1.failed

	rr, err := replayRuntime(spec, seed, res1, walDir)
	if err != nil {
		return nil, fmt.Errorf("runtime replay: %w", err)
	}
	sent := res1.load.tenants[0].sent.Load()
	batches := min(sent, int64(componentEvents/(spec.batch*len(tenantNames))))
	cc, err := replayComponents(spec, seed, batches, walDir)
	if err != nil {
		return nil, fmt.Errorf("component replay: %w", err)
	}

	per := func(total float64, n int64) float64 { return total / float64(max(n, 1)) }
	batch := float64(spec.batch)

	// Wire codecs.
	wireDecNs := per(cc.ingDecNs, cc.events)
	rep.set("wire.ingest_encode_ns_per_event", per(cc.ingEncNs, cc.events), "ns/event", int(cc.events))
	rep.set("wire.ingest_decode_ns_per_event", wireDecNs, "ns/event", int(cc.events))
	rep.set("wire.bytes_per_event", per(float64(cc.ingBytes), cc.events), "bytes/event", int(cc.events))
	ansCodecNs := per(cc.ansEncNs+cc.ansDecNs, cc.answers)
	rep.set("wire.answer_encode_ns_per_answer", per(cc.ansEncNs, cc.answers), "ns/answer", int(cc.answers))
	rep.set("wire.answer_decode_ns_per_answer", per(cc.ansDecNs, cc.answers), "ns/answer", int(cc.answers))
	rep.set("wire.bytes_per_answer", per(float64(cc.ansBytes), cc.answers), "bytes/answer", int(cc.answers))

	// Server ingest: the RTT of Client.Ingest in the traced pass, less
	// the wire decode and the runtime's own IngestBatch time.
	rtIngestNs, rtIngestN := rr.load.rtt.sliced(0.5)
	rtIngestPerEvent := rtIngestNs / batch
	rep.set("server.ingest_rtt_p50_us", f1.rttP50, "us", f1.ackN)
	rep.set("server.ingest_rtt_p99_us", f1.rttP99, "us", f1.ackN)
	rep.set("server.ingest_self_ns_per_event", f1.rttP50*1e3/batch-wireDecNs-rtIngestPerEvent, "ns/event", f1.ackN)

	// Runtime.
	rep.set("runtime.ingest_batch_ns_per_event", rtIngestPerEvent, "ns/event", rtIngestN)
	bal := rr.stats.Balance()
	rep.set("runtime.shard_skew", bal.StdDev/max(bal.Mean, 1), "ratio", len(rr.stats.Shards))
	tot := res1.rtStats.Totals()
	rep.set("runtime.windower_ns_per_event", per(cc.windowerNs, cc.events), "ns/event", int(cc.events))
	rep.set("runtime.windows_per_event", per(float64(tot.WindowsClosed), tot.EventsIn), "ratio", int(tot.EventsIn))
	rep.set("runtime.panes_per_event", per(float64(tot.PanesClosed), tot.EventsIn), "ratio", int(tot.EventsIn))
	serveP50 := quantile(rr.serve, 0.5) / 1e3
	rep.set("runtime.serve_p50_us", serveP50, "us", len(rr.serve))
	rep.set("runtime.serve_p99_us", quantile(rr.serve, 0.99)/1e3, "us", len(rr.serve))
	windowsPerBatch := per(float64(cc.windows), cc.batches)
	shardWorkUs := (per(cc.windowerNs, cc.events)*batch +
		windowsPerBatch*(per(cc.decideNs, cc.windows)+per(cc.stageNs, cc.windows)+per(cc.coreNs, cc.windows)) +
		per(float64(cc.commits), cc.batches)*per(cc.commitNs, cc.commits)) / 1e3
	rep.set("runtime.hop_self_us_per_batch", serveP50-shardWorkUs, "us/batch", len(rr.serve))
	rep.set("runtime.backlog_events_max", float64(res1.backlog), "count", 0)
	rep.set("runtime.dropped_events", float64(tot.DroppedLate+tot.DroppedFuture+tot.DroppedIngest+tot.DroppedFailed), "count", 0)

	// Engine, ledger, WAL.
	rep.set("core.process_ns_per_window", per(cc.coreNs, cc.windows), "ns/window", int(cc.windows))
	rep.set("core.process_allocs_per_window", per(cc.coreAllocs, cc.windows), "allocs/window", int(cc.windows))
	if spec.budget {
		rep.set("account.decide_ns_per_window", per(cc.decideNs, cc.windows), "ns/window", int(cc.windows))
		if b := res1.rtStats.Budget; b != nil {
			all := b.Admitted + b.Denied + b.Suppressed + b.Throttled
			rep.set("account.admitted_ratio", per(float64(b.Admitted), all), "ratio", int(all))
		}
	}
	if spec.wal {
		rep.set("durable.stage_ns_per_window", per(cc.stageNs, cc.windows), "ns/window", int(cc.windows))
		rep.set("durable.commit_us_per_batch", per(cc.commitNs, cc.commits)/1e3, "us/batch", int(cc.commits))
		rep.set("durable.bytes_per_window", per(float64(res1.walBytes), tot.WindowsClosed), "bytes/window", int(tot.WindowsClosed))
		rep.set("durable.checkpoint_ms", median(rr.checkpointMs), "ms", len(rr.checkpointMs))
	}

	// Delivery: ack -> answer decoded, less the runtime serve span and the
	// answer codecs.
	var ackToAns []float64
	for _, s := range res1.spans {
		tl := res1.load.tenants[s.tenant]
		if res1.ph.in(time.Duration(tl.due[s.batch].Load())) {
			ackToAns = append(ackToAns, float64(s.at-tl.ack[s.batch].Load()))
		}
	}
	ackToAnsUs := quantile(ackToAns, 0.5) / 1e3
	rep.set("server.deliver_self_us_per_answer", ackToAnsUs-serveP50-ansCodecNs/1e3, "us/answer", len(ackToAns))
	var dropped int64
	for _, ts := range res1.srvStats.Tenants {
		dropped += ts.AnswersDropped
	}
	rep.set("server.answers_dropped", float64(dropped), "count", 0)
	rep.set("core.detection_probability_ns_per_call", tt.callNs/float64(max(tt.calls, 1)), "ns/call", int(tt.calls))

	// Process and load-side figures, from the untraced pass.
	rep.set("process.allocs_per_event", f0.allocsPerEvent, "allocs/event", int(f0.eventsInPhase))
	rep.set("process.gc_pause_ms_total", f0.gcMs, "ms", 0)
	rep.set("answer_latency_p99_ms", f0.ansP99, "ms", f0.ansN)
	rep.set("ingest_ack_p50_ms", f0.ackP50, "ms", f0.ackN)
	rep.set("ingest_ack_p99_ms", f0.ackP99, "ms", f0.ackN)
	rep.set("generator_lag_p99_ms", f0.lagP99, "ms", f0.lagN)
	rep.set("failed_ops_ratio", f0.failedRatio, "ratio", int(f0.attempted))

	// The decomposition of the traced pass's answer latency p50.
	lag, rtt := f1.lagP50, f1.rttP50/1e3
	deliverSelf := ackToAnsUs/1e3 - serveP50/1e3 - ansCodecNs/1e6
	codecs := ansCodecNs / 1e6
	sum := lag + rtt + serveP50/1e3 + deliverSelf + codecs
	residual := f1.ansP50 - sum
	rep.set("trace.residual_ms", residual, "ms", f1.ansN)
	rep.set("trace.overhead_ratio", f1.ansP50/f0.ansP50-1, "ratio", f1.ansN)
	rep.notef("answer_latency_p50_ms decomposition (traced pass, ms): %.4f = generator lag %.4f + server ingest span %.4f + runtime serve span %.4f + deliver self %.4f + answer codecs %.4f + residual %.4f",
		f1.ansP50, lag, rtt, serveP50/1e3, deliverSelf, codecs, residual)
	rep.notef("tracing overhead (traced - untraced): events_per_s %+.0f (%.0f vs %.0f), answer_latency_p50_ms %+.4f (%.4f vs %.4f), answer_latency_p99_ms %+.4f",
		f1.eventsPerS-f0.eventsPerS, f1.eventsPerS, f0.eventsPerS, f1.ansP50-f0.ansP50, f1.ansP50, f0.ansP50, f1.ansP99-f0.ansP99)
	rep.notef("component replay: %d batches per tenant, %d events, %d windows, %d answers", batches, cc.events, cc.windows, cc.answers)
	if err := writeSpans(filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, seed)), res1); err != nil {
		return nil, err
	}
	notExercised(rep)
	return rep, nil
}

// maxSpanLines bounds the span file.
const maxSpanLines = 100_000

// writeSpans writes the traced pass's spans as JSON lines: one "ingest"
// span per batch (due, send-to-ack) and one "answer" span per received
// answer, whose parent is the ingest span of the batch that closed its
// window.
func writeSpans(path string, res *tcpResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	lines := 0
	type span struct {
		Name   string `json:"name"`
		ID     string `json:"id"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for t, tl := range res.load.tenants {
		n := int(tl.sent.Load())
		for k := 0; k < n && lines < maxSpanLines/2; k++ {
			enc.Encode(span{Name: "client.ingest", ID: fmt.Sprintf("%s/%d", tenantNames[t], k), Start: tl.due[k].Load(), End: tl.ack[k].Load()})
			lines++
		}
	}
	for _, s := range res.spans {
		if lines >= maxSpanLines {
			break
		}
		enc.Encode(span{Name: "answer.receive", Parent: fmt.Sprintf("%s/%d", tenantNames[s.tenant], s.batch),
			Start: res.load.tenants[s.tenant].ack[s.batch].Load(), End: s.at})
		lines++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
