package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

// Serving settings taken from cmd/ppmserve's defaults for -listen mode.
const (
	serveShards       = 8
	serveEpsilon      = 1.0
	serveReplayBuffer = 256
	serveHeartbeat    = 10 * time.Second
	serveResumeWindow = 30 * time.Second
	serveCheckpoint   = 5 * time.Second
	// serveGrant is a per-stream grant no stream can exhaust within a run
	// (a stream closes well under a million windows in 60 s).
	serveGrant = 1e9
	// qualityAlpha weighs precision against recall in Eq. 4, as in the paper.
	qualityAlpha = 0.5
)

// runtimeConfig is the serving runtime configuration of a spec. walDir is
// used only when the spec enables the WAL.
func runtimeConfig(spec servingSpec, seed int64, walDir string, reg *metrics.Registry) (runtime.Config, error) {
	qs, err := spec.parseQueries()
	if err != nil {
		return runtime.Config{}, err
	}
	cfg := runtime.Config{
		Shards:      serveShards,
		WindowWidth: event.Timestamp(spec.width),
		Slide:       event.Timestamp(spec.slide),
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(serveEpsilon, private...)
		},
		Private: []core.PatternType{privateType()},
		Targets: qs,
		Seed:    seed,
		Metrics: reg,
	}
	if spec.slide == spec.width {
		cfg.Slide = 0
	}
	if spec.budget {
		cfg.Budget = serveGrant
		cfg.BudgetPolicy = account.Deny
	}
	if spec.wal {
		cfg.Durability = &runtime.DurabilityConfig{Dir: walDir, Fsync: durableFsync, CheckpointEvery: serveCheckpoint}
	}
	return cfg, nil
}

// durableFsync is ppmserve's default -fsync policy.
var durableFsync = func() runtime.FsyncPolicy {
	p, err := runtime.ParseFsyncPolicy("interval")
	if err != nil {
		panic(err)
	}
	return p
}()

// mechanism is the serving mechanism, built the way the runtime's factory
// builds it: its flip probabilities and per-window charge are what the
// checks hold the released answers to.
func mechanism() *core.UniformPPM {
	m, err := core.NewUniformPPM(serveEpsilon, privateType())
	if err != nil {
		panic(err)
	}
	return m
}

// servingEnv is one ready-to-serve instance: runtime, server on loopback
// TCP, two connected tenants and their subscriptions.
type servingEnv struct {
	spec      servingSpec
	walDir    string
	rt        *runtime.Runtime
	srv       *server.Server
	serveDone chan error
	clients   [2]*server.Client
	subs      [2][]*server.ClientSub
	subQuery  [2][]int // subscribed query index per subscription, -1 = all
}

// setupServing builds a servingEnv; everything it starts is stopped by close.
func setupServing(spec servingSpec, seed int64, walDir string) (*servingEnv, error) {
	e := &servingEnv{spec: spec, walDir: walDir}
	if spec.wal {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
	}
	cfg, err := runtimeConfig(spec, seed, walDir, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	e.rt, err = runtime.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	e.srv, err = server.New(server.Config{
		Runtime:      e.rt,
		Auth:         server.TokenAuth(0),
		Heartbeat:    serveHeartbeat,
		ResumeWindow: serveResumeWindow,
		ReplayBuffer: serveReplayBuffer,
		Metrics:      cfg.Metrics,
	})
	if err != nil {
		e.rt.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.rt.Close()
		return nil, err
	}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	addr := ln.Addr().String()
	for t := range e.clients {
		c, err := server.Connect(server.ClientConfig{
			Token:  tenantNames[t],
			Dialer: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("connect %s: %w", tenantNames[t], err)
		}
		e.clients[t] = c
		queries := []int{-1}
		if t == 1 && spec.perQuerySubs {
			queries = queries[:0]
			for q := range spec.queries {
				queries = append(queries, q)
			}
		}
		for _, q := range queries {
			name := ""
			if q >= 0 {
				name = fmt.Sprintf("q%d", q)
			}
			sub, err := c.Subscribe(name, 0)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("subscribe %s %q: %w", tenantNames[t], name, err)
			}
			e.subs[t] = append(e.subs[t], sub)
			e.subQuery[t] = append(e.subQuery[t], q)
		}
	}
	return e, nil
}

// close stops clients, server and runtime and waits for the server loop.
func (e *servingEnv) close() error {
	for _, c := range e.clients {
		if c != nil {
			c.Close()
		}
	}
	e.srv.Drain()
	rtErr := e.rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waitErr := e.srv.Wait(ctx)
	e.srv.Close()
	if e.serveDone != nil {
		if err := <-e.serveDone; err != nil && !errors.Is(err, server.ErrServerClosed) {
			return err
		}
	}
	if e.spec.wal {
		if err := os.RemoveAll(e.walDir); err != nil {
			return err
		}
	}
	return errors.Join(rtErr, waitErr)
}

// schedule is the load's send schedule: per tenant, each sent batch's due
// time relative to the origin.
func (res *loadResult) schedule() [2][]time.Duration {
	var out [2][]time.Duration
	for t, tl := range res.tenants {
		n := int(tl.sent.Load())
		out[t] = make([]time.Duration, n)
		for k := range out[t] {
			out[t][k] = time.Duration(tl.due[k].Load()) - res.origin
		}
	}
	return out
}

// tenantLoad is one tenant's load generator state and per-batch clock.
type tenantLoad struct {
	gen *generator
	// due and ack hold, per batch, when it was due and when its Ack (or
	// IngestBatch return) was seen, in clock nanoseconds.
	due, ack []atomic.Int64
	sent     atomic.Int64 // batches issued
	failed   atomic.Int64 // batches refused or errored
	events   atomic.Int64 // events acknowledged inside the timed phase
	ackedAll atomic.Int64 // events acknowledged in total
	firstErr atomic.Value
	// answered counts the answers (and gap-covered answers) the tenant's
	// subscriptions received; wake is signalled after each, for a load
	// closed over answers.
	answered atomic.Int64
	wake     chan struct{}
}

// gotAnswers records n received answers of the tenant.
func (tl *tenantLoad) gotAnswers(n int64) {
	tl.answered.Add(n)
	select {
	case tl.wake <- struct{}{}:
	default:
	}
}

// awaitAnswers waits until the tenant received want answers; it reports
// false if stopAt came first.
func (tl *tenantLoad) awaitAnswers(want int64, stopAt time.Duration) bool {
	if tl.answered.Load() >= want {
		return true
	}
	timer := time.NewTimer(stopAt - now())
	defer timer.Stop()
	for tl.answered.Load() < want {
		select {
		case <-tl.wake:
		case <-timer.C:
			return false
		}
	}
	return true
}

// phase is the clock window the measurement covers, after warm-up.
type phase struct{ from, to time.Duration }

func (p phase) in(t time.Duration) bool { return t >= p.from && t < p.to }

// loadResult is what driving the load measured.
type loadResult struct {
	tenants [2]*tenantLoad
	origin  time.Duration // clock time the schedule counts from
	ackLat  *hist         // batch due -> Ack, ns
	rtt     *hist         // send start -> Ack, ns
	lag     *hist         // send start - due, ns
	// outran reports that a tenant used every per-batch clock slot before
	// the load was due to stop.
	outran atomic.Bool
}

// maxBatches bounds the per-batch clock arrays.
func maxBatches(spec servingSpec, total time.Duration) int {
	perSec := 12_000.0 // closed loop: 3M events/s per tenant, above any rate seen on 2 vCPUs
	if spec.openLoop {
		perSec = spec.rate / float64(spec.batch*len(tenantNames)) * 1.5
	}
	return int(perSec*total.Seconds()) + 16
}

// newLoad allocates the per-batch clocks for a load that starts now and
// stops at the end of ph.
func newLoad(spec servingSpec, gens [2]*generator, ph phase) *loadResult {
	res := &loadResult{ackLat: newHist(ph), rtt: newHist(ph), lag: newHist(ph)}
	n := maxBatches(spec, ph.to-now())
	for t := range res.tenants {
		res.tenants[t] = &tenantLoad{gen: gens[t], due: make([]atomic.Int64, n), ack: make([]atomic.Int64, n), wake: make(chan struct{}, 1)}
	}
	return res
}

// drive runs one load thread per tenant until stopAt: closed loop (the next
// batch is due when the previous Ack arrives and, with spec.answerDepth,
// the answers of the batch answerDepth back) or open loop (batch k of a
// tenant is due at origin + k*interval, and a late generator sends
// immediately — the delay is charged to latency and reported as lag). A
// non-nil schedule replaces either discipline: batch k of tenant t is due at
// origin + schedule[t][k], and the load ends with the schedule.
func (res *loadResult) drive(spec servingSpec, ingest func(t int, evs []event.Event) error, ph phase, origin, stopAt time.Duration, schedule [2][]time.Duration) {
	interval := time.Duration(0)
	if spec.openLoop {
		interval = time.Duration(float64(time.Second) * float64(spec.batch*len(tenantNames)) / spec.rate)
	}
	res.origin = origin
	var wg sync.WaitGroup
	for t := range res.tenants {
		tl := res.tenants[t]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The tenants' schedules interleave half an interval apart.
			first := origin + time.Duration(t)*interval/2
			for k := 0; ; k++ {
				if k == len(tl.due) {
					res.outran.Store(true)
					return
				}
				var due time.Duration
				switch {
				case schedule[t] != nil:
					if k >= len(schedule[t]) {
						return
					}
					due = origin + schedule[t][k]
				case spec.openLoop:
					due = first + time.Duration(k)*interval
				default:
					if d := spec.answerDepth; d > 0 && !tl.awaitAnswers(spec.answersAfter(int64(k-d+1)), stopAt) {
						return
					}
					due = now()
				}
				if due >= stopAt {
					return
				}
				evs := tl.gen.nextBatch()
				if d := due - now(); d > 0 {
					time.Sleep(d)
				}
				tl.due[k].Store(int64(due))
				sendAt := now()
				err := ingest(t, evs)
				ackAt := now()
				tl.ack[k].Store(int64(ackAt))
				tl.sent.Add(1)
				if err != nil {
					tl.failed.Add(1)
					tl.firstErr.CompareAndSwap(nil, err.Error())
					continue
				}
				tl.ackedAll.Add(int64(len(evs)))
				if ph.in(ackAt) {
					tl.events.Add(int64(len(evs)))
				}
				res.ackLat.add(ackAt, float64(ackAt-due))
				res.rtt.add(ackAt, float64(ackAt-sendAt))
				res.lag.add(ackAt, float64(sendAt-due))
			}
		}()
	}
	wg.Wait()
}

// answerSpan is one received answer: the tenant, the batch that closed its
// window, and when it was received (clock ns).
type answerSpan struct {
	tenant int8
	batch  int32
	at     int64
}

// tcpResult is the outcome of one pass over loopback TCP.
type tcpResult struct {
	load      *loadResult
	ph        phase
	ansLat    *hist        // closing batch due -> answer decoded, ns
	spans     []answerSpan // traced pass only
	checks    [2][]*subCheck
	lost      int64 // expected answers neither delivered nor gapped
	expected  int64
	windows   [2]int64
	heapPeak  float64 // bytes
	backlog   int64   // max events acked but not yet taken in by a shard
	mem0      goruntime.MemStats
	mem1      goruntime.MemStats
	srvStats  server.Stats
	rtStats   runtime.Stats
	walBytes  int64
	setupRuns []float64 // seconds
}

// runTCP sets up the serving stack setups times (reporting each set-up
// time), drives the last instance through warm-up and the timed phase, waits
// for the answers the load closed, and checks them.
func runTCP(spec servingSpec, seed int64, warm, dur time.Duration, setups int, traced bool, walDir string) (*tcpResult, error) {
	res := &tcpResult{}
	var env *servingEnv
	for i := 0; i < setups; i++ {
		start := now()
		e, err := setupServing(spec, seed, walDir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupRuns = append(res.setupRuns, (now() - start).Seconds())
		if i < setups-1 {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		env = e
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()

	qs, err := spec.parseQueries()
	if err != nil {
		return nil, err
	}
	queryIdx := map[string]int{}
	for i, q := range qs {
		queryIdx[q.Name] = i
	}
	var gens [2]*generator
	var streamIdx [2]map[string]int
	for t := range gens {
		gens[t] = newGenerator(spec, seed, t, "")
		streamIdx[t] = map[string]int{}
		for s, name := range gens[t].sources {
			streamIdx[t][name] = s
		}
	}
	budget := budgetTerms{}
	if spec.budget {
		budget = budgetTerms{grant: serveGrant, charge: float64(mechanism().TotalEpsilon())}
	}

	begin := now()
	res.ph = phase{from: begin + warm, to: begin + warm + dur}
	load := newLoad(spec, gens, res.ph)
	res.ansLat = newHist(res.ph)
	res.load = load
	var seen atomic.Int64
	var spanMu sync.Mutex
	var wg sync.WaitGroup
	for t := range env.subs {
		for i, sub := range env.subs[t] {
			chk := newSubCheck(env.subQuery[t][i], streamIdx[t], queryIdx, spec.slide, budget)
			res.checks[t] = append(res.checks[t], chk)
			wg.Add(1)
			go func() {
				defer wg.Done()
				tl := load.tenants[t]
				var local []answerSpan
				for a := range sub.C {
					at := now()
					seen.Add(1)
					delivered := chk.observe(a)
					if a.Gap {
						tl.gotAnswers(int64(a.Seq - a.GapFrom + 1))
					} else {
						tl.gotAnswers(1)
					}
					if !delivered {
						continue
					}
					k := spec.closingBatch(a.End)
					if k >= int64(len(tl.due)) {
						continue
					}
					res.ansLat.add(at, float64(at-time.Duration(tl.due[k].Load())))
					if traced {
						local = append(local, answerSpan{tenant: int8(t), batch: int32(k), at: int64(at)})
					}
				}
				if traced {
					spanMu.Lock()
					res.spans = append(res.spans, local...)
					spanMu.Unlock()
				}
			}()
		}
	}

	// The heap sampler covers the timed phase only; a traced pass also
	// samples the backlog of acknowledged events no shard has taken in.
	heap := startHeapSampler(res.ph)
	stopBacklog := make(chan struct{})
	var samplers sync.WaitGroup
	if traced {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopBacklog:
					return
				case <-tick.C:
					acked := load.tenants[0].ackedAll.Load() + load.tenants[1].ackedAll.Load()
					res.backlog = max(res.backlog, acked-env.rt.Snapshot().Totals().EventsIn)
				}
			}
		}()
	}
	// Allocation and GC counters start with the timed phase.
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		time.Sleep(res.ph.from - now())
		goruntime.ReadMemStats(&res.mem0)
	}()

	walStart := dirSize(env.walDir)
	ingest := func(t int, evs []event.Event) error {
		_, err := env.clients[t].Ingest(evs)
		return err
	}
	load.drive(spec, ingest, res.ph, begin, res.ph.to, [2][]time.Duration{})
	goruntime.ReadMemStats(&res.mem1)
	res.heapPeak = heap.finish()
	close(stopBacklog)
	samplers.Wait()
	if load.outran.Load() {
		return nil, fmt.Errorf("load outran its %d per-batch clock slots", len(load.tenants[0].due))
	}

	// Wait for the answers the load closed: every subscription's stream
	// reaches its expected count, or nothing arrives for two seconds.
	for t := range gens {
		res.windows[t] = gens[t].closedWindows()
	}
	var want int64
	for t := range res.checks {
		for _, c := range res.checks[t] {
			want += c.expected(res.windows[t])
		}
	}
	last, idle := seen.Load(), time.Now()
	for seen.Load() < want && time.Since(idle) < 2*time.Second {
		time.Sleep(10 * time.Millisecond)
		if s := seen.Load(); s != last {
			last, idle = s, time.Now()
		}
	}
	// A short grace lets any answers beyond the expected count (a defect
	// the checks report) arrive before the connections close.
	time.Sleep(50 * time.Millisecond)
	res.srvStats = env.srv.Stats()
	res.rtStats = env.rt.Snapshot()
	res.walBytes = dirSize(env.walDir) - walStart
	closed = true
	closeErr := env.close()
	wg.Wait()
	for t := range res.checks {
		for _, c := range res.checks[t] {
			res.expected += c.expected(res.windows[t])
			res.lost += c.finish(res.windows[t])
		}
	}
	return res, closeErr
}

func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
