package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/stream"
	"patterndp/internal/wire"
)

// runtimeReplay is the runtime-only part of a traced run: the same
// namespaced batches, sent on the schedule the traced pass kept, into a
// fresh runtime.Runtime with the serving configuration, and the runtime
// subscriptions the server would hold for the two tenants.
type runtimeReplay struct {
	load         *loadResult
	ph           phase
	serve        []float64 // IngestBatch return -> answer on Subscribe, ns
	stats        runtime.Stats
	checkpointMs []float64
}

func replayRuntime(spec servingSpec, seed int64, traced *tcpResult, walDir string) (*runtimeReplay, error) {
	if spec.wal {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	cfg, err := runtimeConfig(spec, seed, walDir, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			rt.Close()
		}
	}()
	var gens [2]*generator
	for t := range gens {
		gens[t] = newGenerator(spec, seed, t, tenantNames[t]+"/")
	}
	sched := traced.load.schedule()
	begin := now()
	shift := begin - traced.load.origin
	out := &runtimeReplay{ph: phase{traced.ph.from + shift, traced.ph.to + shift}}
	out.load = newLoad(spec, gens, out.ph)

	type runtimeSub struct {
		tenant int
		sub    *runtime.Subscription
	}
	var subs []runtimeSub
	for t := range tenantNames {
		names := []string{""}
		if t == 1 && spec.perQuerySubs {
			names = names[:0]
			for q := range spec.queries {
				names = append(names, fmt.Sprintf("q%d", q))
			}
		}
		for _, name := range names {
			sub, err := rt.Subscribe(name)
			if err != nil {
				return nil, err
			}
			subs = append(subs, runtimeSub{t, sub})
		}
	}
	var seen atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefix := tenantNames[s.tenant] + "/"
			tl := out.load.tenants[s.tenant]
			var local []float64
			for a := range s.sub.C() {
				at := now()
				// The server's bridge drops other tenants' answers here.
				if !strings.HasPrefix(a.Stream, prefix) {
					continue
				}
				seen.Add(1)
				k := spec.closingBatch(int64(a.Window.End))
				if k >= int64(len(tl.ack)) {
					continue
				}
				if out.ph.in(time.Duration(tl.due[k].Load())) {
					local = append(local, float64(at-time.Duration(tl.ack[k].Load())))
				}
			}
			mu.Lock()
			out.serve = append(out.serve, local...)
			mu.Unlock()
		}()
	}
	out.load.drive(spec, func(_ int, evs []event.Event) error { return rt.IngestBatch(evs) }, out.ph, begin, out.ph.to, sched)
	if out.load.outran.Load() {
		return nil, fmt.Errorf("replay outran its %d per-batch clock slots", len(out.load.tenants[0].due))
	}
	// Either subscription shape receives every query's answer once.
	var want int64
	for t := range gens {
		want += int64(spec.streams) * gens[t].closedWindows() * int64(len(spec.queries))
	}
	last, idle := seen.Load(), time.Now()
	for seen.Load() < want && time.Since(idle) < 2*time.Second {
		time.Sleep(10 * time.Millisecond)
		if s := seen.Load(); s != last {
			last, idle = s, time.Now()
		}
	}
	out.stats = rt.Snapshot()
	if spec.wal {
		for i := 0; i < 3; i++ {
			start := now()
			if err := rt.Checkpoint(context.Background()); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			out.checkpointMs = append(out.checkpointMs, float64(now()-start)/1e6)
		}
	}
	for _, s := range subs {
		s.sub.Cancel()
	}
	closed = true
	err = rt.Close()
	wg.Wait()
	return out, err
}

// componentCosts is the single-threaded component replay: the shard's
// public pieces called in shard order on the same batches.
type componentCosts struct {
	events, batches, windows, answers, commits      int64
	windowerNs, decideNs, stageNs, coreNs, commitNs float64
	ansEncNs, ansDecNs, ingEncNs, ingDecNs          float64
	coreAllocs                                      float64
	ansBytes, ingBytes                              int64
}

// timerCost is the cost of one now() pair, subtracted from every timed
// region of the component replay.
func timerCost() float64 {
	const n = 100_000
	start := now()
	for i := 0; i < n; i++ {
		_ = now()
	}
	return float64(now()-start) / n
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocsSoFar() float64 {
	rtmetrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// replayComponents replays batches batches per tenant, alternating tenants
// like the two connections do. Pass one pushes every event through fresh
// windowers alone (the windower cost); pass two runs the whole shard job:
// windower, ledger decision and charge, WAL staging, engine, WAL commit per
// shard sub-batch, then the answer codec; the ingest codec runs per batch.
func replayComponents(spec servingSpec, seed int64, batches int64, walDir string) (*componentCosts, error) {
	c := &componentCosts{}
	tc := timerCost()
	overlap := int(spec.width / spec.slide)
	newWindower := func() *runtime.Windower {
		return runtime.NewSlidingWindower(event.Timestamp(spec.width), event.Timestamp(spec.slide), runtime.DropLate, 0, 0)
	}

	// Pass one: windowers alone.
	{
		var gens [2]*generator
		wins := [2][]*runtime.Windower{}
		for t := range gens {
			gens[t] = newGenerator(spec, seed, t, tenantNames[t]+"/")
			for s := 0; s < spec.streams; s++ {
				wins[t] = append(wins[t], newWindower())
			}
		}
		var dst []stream.Window
		var ns float64
		for k := int64(0); k < batches; k++ {
			for t := range gens {
				evs := gens[t].nextBatch()
				start := now()
				for i := range evs {
					dst, _ = wins[t][i%spec.streams].PushInto(evs[i], dst[:0])
				}
				ns += float64(now()-start) - tc
			}
		}
		c.windowerNs = ns
	}

	// Pass two: the shard job.
	qs, err := spec.parseQueries()
	if err != nil {
		return nil, err
	}
	plans := make([]*cep.Plan, len(qs))
	for i, q := range qs {
		if plans[i], err = cep.Compile(q); err != nil {
			return nil, err
		}
	}
	mech := mechanism()
	charge := float64(mech.TotalEpsilon())
	type shardParts struct {
		engine *core.PrivateEngine
		led    *account.ShardLedger
		app    *durable.Appender
	}
	shards := make([]shardParts, serveShards)
	var ledger *account.Ledger
	if spec.budget {
		ledger = account.NewLedger(serveGrant, account.Deny, overlap, serveShards)
	}
	var log *durable.Log
	if spec.wal {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
		if log, err = durable.Open(walDir, durable.Options{Shards: serveShards, Fsync: durableFsync}); err != nil {
			return nil, err
		}
		defer log.Close()
	}
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.Name
	}
	for i := range shards {
		eng, err := core.NewPrivateEngine(mech, []core.PatternType{privateType()}, core.MixSeed(seed, int64(i)))
		if err != nil {
			return nil, err
		}
		if err := eng.SetTargetPlans(plans); err != nil {
			return nil, err
		}
		shards[i].engine = eng
		if ledger != nil {
			shards[i].led = ledger.Shard(i)
			shards[i].led.SetCharge(charge)
			shards[i].led.SetQueries(names)
		}
		if log != nil {
			shards[i].app = log.Shard(i)
		}
	}
	type streamPart struct {
		key   string
		shard int
		win   *runtime.Windower
		bud   *account.StreamLedger
		next  int64
	}
	var gens [2]*generator
	parts := [2][]*streamPart{}
	for t := range gens {
		gens[t] = newGenerator(spec, seed, t, tenantNames[t]+"/")
		for _, key := range gens[t].sources {
			p := &streamPart{key: key, shard: runtime.HashSharder{}.Shard(key, serveShards), win: newWindower()}
			if ledger != nil {
				p.bud = shards[p.shard].led.OpenStream(key, 0)
			}
			parts[t] = append(parts[t], p)
		}
	}
	var (
		dst      []stream.Window
		admitted []stream.Window
		answers  []core.Answer
		payload  []byte
		frame    []byte
		frames   []byte
		plainEvs []event.Event
		decoded  []event.Event
		br       bytes.Reader
	)
	rd := wire.NewReader(&br)
	for k := int64(0); k < batches; k++ {
		for t := range gens {
			evs := gens[t].nextBatch()
			c.batches++
			c.events += int64(len(evs))

			// Ingest codec, on the tenant-relative events the client sends.
			plainEvs = append(plainEvs[:0], evs...)
			cut := len(tenantNames[t]) + 1
			for i := range plainEvs {
				plainEvs[i].Source = plainEvs[i].Source[cut:]
			}
			start := now()
			payload = wire.AppendIngest(payload[:0], wire.Ingest{Req: uint64(k), Events: plainEvs})
			frame = wire.AppendFrame(frame[:0], wire.TIngest, payload)
			c.ingEncNs += float64(now()-start) - tc
			c.ingBytes += int64(len(frame))
			br.Reset(frame)
			start = now()
			f, err := rd.Next()
			if err != nil {
				return nil, err
			}
			in, err := wire.DecodeIngest(f.Payload, decoded[:0])
			if err != nil {
				return nil, err
			}
			decoded = in.Events
			c.ingDecNs += float64(now()-start) - tc

			// The shard job, shard by shard in event order.
			for sh := 0; sh < serveShards; sh++ {
				touched := false
				for i := range evs {
					p := parts[t][i%spec.streams]
					if p.shard != sh {
						continue
					}
					touched = true
					dst, _ = p.win.PushInto(evs[i], dst[:0])
					if len(dst) == 0 {
						continue
					}
					c.windows += int64(len(dst))
					admitted = admitted[:0]
					if ledger != nil {
						start := now()
						for j := range dst {
							out := ledger.Decide(shards[sh].led, p.bud, p.next+int64(j), charge, 0)
							if out.Decision == account.Admitted {
								shards[sh].led.ChargeQueries(charge)
								admitted = append(admitted, dst[j])
							}
						}
						c.decideNs += float64(now()-start) - tc
					} else {
						admitted = append(admitted, dst...)
					}
					if app := shards[sh].app; app != nil {
						start := now()
						for j := range dst {
							app.StageWindow(p.key, p.next+int64(j), int64(dst[j].Start), durable.DecisionAdmitted, charge, 0)
						}
						c.stageNs += float64(now()-start) - tc
					}
					a0 := allocsSoFar()
					start := now()
					answers, err = shards[sh].engine.ProcessWindowsInto(answers[:0], admitted)
					c.coreNs += float64(now()-start) - tc
					c.coreAllocs += allocsSoFar() - a0
					if err != nil {
						return nil, err
					}
					// The answer codec: the server's encode, the client's decode.
					start = now()
					frames = frames[:0]
					for j, a := range answers {
						wa := wire.Answer{
							Sub: 1, Seq: uint64(c.answers) + uint64(j) + 1,
							Stream: p.key[cut:], Query: a.Query,
							WindowIndex: uint64(p.next) + uint64(a.WindowIndex),
							Start:       int64(a.Window.Start), End: int64(a.Window.End),
							Detected: a.Detected,
						}
						payload = wire.AppendAnswer(payload[:0], wa)
						frames = wire.AppendFrame(frames, wire.TAnswer, payload)
					}
					c.ansEncNs += float64(now()-start) - tc
					c.ansBytes += int64(len(frames))
					start = now()
					for off := 0; off < len(frames); {
						f, n, err := wire.DecodeFrame(frames[off:])
						if err == nil {
							_, err = wire.DecodeAnswer(f.Payload)
						}
						if err != nil {
							return nil, err
						}
						off += n
					}
					c.ansDecNs += float64(now()-start) - tc
					c.answers += int64(len(answers))
					p.next += int64(len(dst))
				}
				if app := shards[sh].app; app != nil && touched {
					start := now()
					if err := app.Commit(); err != nil {
						return nil, err
					}
					c.commitNs += float64(now()-start) - tc
					c.commits++
				}
			}
		}
	}
	return c, nil
}
