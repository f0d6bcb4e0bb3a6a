package runtime

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/core"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/stream"
)

// shardStats are one shard's serving counters. They are bumped only by the
// shard's serving goroutine (droppedIngest: by producers) and loaded
// concurrently by Snapshot.
type shardStats struct {
	eventsIn       metrics.Counter
	windowsClosed  metrics.Counter
	panesClosed    metrics.Counter
	answersEmitted metrics.Counter
	droppedLate    metrics.Counter
	droppedFuture  metrics.Counter
	droppedIngest  metrics.Counter
	droppedFailed  metrics.Counter
	streams        metrics.Counter
	streamsEvicted metrics.Counter
}

// ingestMsg is one shard channel message: a single event (batch and ckpt
// nil), a batch of events in stream order, or a checkpoint request. Batches
// amortize the per-message channel synchronization over many events; the
// single-event form keeps Ingest allocation-free. Checkpoint requests flow
// through the same channel so the shard exports between batches — a point
// where its ledger, windowers, and WAL position are mutually consistent.
type ingestMsg struct {
	ev    event.Event
	batch []event.Event
	ckpt  chan<- shardCkptResult
	// t0 is the trace origin (unix nanoseconds of ingest admission) when
	// the batch was selected for lifecycle tracing; 0 otherwise.
	t0 int64
}

// size returns the number of events the message carries.
func (m ingestMsg) size() int64 {
	if m.ckpt != nil {
		return 0
	}
	if m.batch != nil {
		return int64(len(m.batch))
	}
	return 1
}

// streamState is the per-stream serving state owned by one shard: the
// stream's incremental windower, its next window index, the shard clock
// reading of its last event (for idle eviction), and the pane-counter
// watermark already folded into the shard stats.
type streamState struct {
	win       *Windower
	next      int
	lastSeen  int64
	panesSeen int64
	// bud is the stream's privacy-budget ledger, cached here so the
	// publish path charges it without a registry lookup; nil when
	// accounting is disabled.
	bud *account.StreamLedger
}

// shard is one serving unit: a bounded ingest channel, its own PrivateEngine
// around its own mechanism instance (independently seeded), and the window
// state of every stream routed to it. All fields past the channel are owned
// by the shard's run goroutine (epoch is additionally loaded by Snapshot).
type shard struct {
	id      int
	rt      *Runtime
	engine  *core.PrivateEngine
	cur     *controlState // control state currently applied to engine
	epoch   atomic.Uint64 // cur.epoch, mirrored for Snapshot
	in      chan ingestMsg
	streams map[string]*streamState
	clock   int64 // events served; drives idle-stream eviction
	stats   shardStats
	failed  atomic.Bool // set on the first serving error; checked by Ingest
	err     error       // first serving error; read after rt.wg.Wait()

	// led is the shard's single-writer budget sub-ledger and charge the
	// current per-window release charge (the mechanism's pattern-level ε);
	// led is nil when accounting is disabled.
	led    *account.ShardLedger
	charge float64

	// wal is the shard's single-writer WAL appender; nil when durability is
	// disabled. Window and eviction records are staged while deciding and
	// group-committed with one write per ingest message, strictly before the
	// answers they cover are published (deferred in defAns until the commit)
	// — the ordering the one-sided recovery invariant rests on.
	wal    *durable.Appender
	defAns []Answer

	// Serving scratch, reused across pushes: the closed-window batch and
	// the answer buffer of one emit. Only the slice headers are recycled —
	// window contents and published answers are copied out before reuse.
	wsScratch  []stream.Window
	ansScratch []core.Answer
	pubAns     []Answer
	pubTargets []pubTarget
	// admScratch and outScratch are the budgeted publish path's reusable
	// buffers: the admitted sub-batch and the per-window admission
	// outcomes of one emit.
	admScratch []stream.Window
	outScratch []account.Outcome
	// trace0 is the trace origin of the message currently being served (0
	// when untraced): answers emitted while it is set carry it as
	// Answer.TraceNanos, extending the lifecycle trace to delivery.
	trace0 int64
	// lastKey/lastStream cache the most recent stream lookup: batches are
	// usually runs of one stream, so consecutive events skip the map.
	lastKey    string
	lastStream *streamState
}

// syncControl applies any control-plane epochs published since the shard
// last served a window. It runs only at window boundaries — the caller is
// about to serve a batch of fully closed windows — so no window is ever
// answered under a half-applied registration state. A private-set change
// rebuilds the mechanism (via the configured factory, so budget splits stay
// coherent over the new set) and the engine around it; a query-only change
// swaps the epoch's precompiled plan set into the live engine, preserving
// mechanism state. It reports false on a rebuild error, which it records for
// Close to surface, like emit.
func (s *shard) syncControl() bool {
	st := s.rt.ctl.Load()
	if st == s.cur {
		return true
	}
	if st.privEpoch != s.cur.privEpoch {
		eng, err := s.rt.buildEngine(s.id, st)
		if err != nil {
			return s.fail(err)
		}
		s.engine = eng
		if s.led != nil {
			// The rebuilt mechanism's pattern-level ε is the new
			// per-window release charge.
			s.charge = float64(eng.Mechanism().TotalEpsilon())
			s.led.SetCharge(s.charge)
		}
	} else if err := s.engine.SetTargetPlans(st.plans); err != nil {
		return s.fail(err)
	}
	if s.led != nil {
		if st.budgetEpoch != s.cur.budgetEpoch {
			// A budget rotation: archive the live per-query attribution;
			// streams rotate their spend lazily at their next release.
			s.led.Rotate()
		}
		s.led.SetQueries(st.targetNames())
	}
	s.cur = st
	s.epoch.Store(uint64(st.epoch))
	return true
}

// fail records the shard's first serving error and flips the failed flag so
// Ingest starts rejecting; it always returns false for use in serving paths.
func (s *shard) fail(err error) bool {
	if s.err == nil {
		s.err = err
	}
	s.failed.Store(true)
	return false
}

// run is the shard's serving loop: window every incoming event's stream,
// serve closed windows through the engine, and publish released answers.
// When the ingest channel closes it drains, flushing every stream's trailing
// windows in deterministic key order.
func (s *shard) run() {
	defer s.rt.wg.Done()
	for msg := range s.in {
		ok := true
		if msg.ckpt != nil {
			msg.ckpt <- shardCkptResult{sc: s.exportCheckpoint()}
			continue
		}
		// A traced message: record the channel dwell (hop) boundary and
		// arm trace0 so every answer it produces carries the origin.
		var tHop time.Time
		var traceN int64
		if msg.t0 != 0 && s.rt.obs != nil {
			tHop = time.Now()
			traceN = msg.size()
			s.trace0 = msg.t0
		}
		if msg.batch == nil {
			s.stats.eventsIn.Inc()
			ok = s.serve(msg.ev)
		} else {
			i := 0
			for ; i < len(msg.batch); i++ {
				if ok = s.serve(msg.batch[i]); !ok {
					break
				}
			}
			if ok {
				s.stats.eventsIn.Add(int64(len(msg.batch)))
			} else {
				// Only the events that entered serving count as
				// ingested; the unserved remainder of the failing
				// batch is discarded and accounted like the
				// post-failure drain below.
				s.stats.eventsIn.Add(int64(i + 1))
				s.stats.droppedFailed.Add(int64(len(msg.batch) - i - 1))
			}
			s.rt.recycleBatch(msg.batch)
		}
		var tServed time.Time
		if s.trace0 != 0 {
			tServed = time.Now()
		}
		if ok {
			// Group commit: one write covers every record staged while
			// serving this message, then the deferred answers publish.
			ok = s.flushWAL()
		}
		if s.trace0 != 0 {
			s.rt.obs.finishTrace(s.id, traceN, msg.t0, tHop, tServed)
			s.trace0 = 0
		}
		if !ok {
			// Serving failed: keep draining so blocked producers and
			// Close are not wedged on a full channel. The discarded
			// events are counted, and Ingest starts rejecting new
			// ones via the failed flag.
			for msg := range s.in {
				if msg.ckpt != nil {
					msg.ckpt <- shardCkptResult{err: fmt.Errorf("runtime: shard %d: %w", s.id, ErrShardFailed)}
					continue
				}
				s.stats.droppedFailed.Add(msg.size())
				if msg.batch != nil {
					s.rt.recycleBatch(msg.batch)
				}
			}
			return
		}
	}
	if s.rt.noFlush.Load() {
		// Freeze: leave trailing windows open. Their pending events and
		// pane rings travel in the final checkpoint's windower state for
		// the adopting process to resume — flushing here would publish
		// partial windows the handoff peer then could not continue.
		return
	}
	keys := make([]string, 0, len(s.streams))
	for k := range s.streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := s.streams[key]
		if !s.emit(key, st, st.win.FlushInto(s.wsScratch[:0])) {
			return
		}
		if !s.flushWAL() {
			return
		}
	}
}

// serve processes one ingested event: route it to its stream's windower and
// serve whatever windows the push closed. It reports false once the shard
// has failed.
func (s *shard) serve(e event.Event) bool {
	s.clock++
	key := streamKey(e)
	st := s.lastStream
	if st == nil || key != s.lastKey {
		st = s.streams[key]
		if st == nil {
			st = &streamState{win: s.rt.cfg.newWindower()}
			if s.led != nil {
				st.bud = s.led.OpenStream(key, uint64(s.cur.budgetEpoch))
			}
			s.streams[key] = st
			s.stats.streams.Inc()
		}
		s.lastKey, s.lastStream = key, st
	}
	st.lastSeen = s.clock
	if evict := s.rt.cfg.EvictAfter; evict > 0 && s.clock%evict == 0 {
		if !s.sweep(evict) {
			return false
		}
	}
	ws, res := st.win.PushInto(e, s.wsScratch[:0])
	switch res {
	case PushLate:
		s.stats.droppedLate.Inc()
	case PushFuture:
		s.stats.droppedFuture.Inc()
	}
	return s.emit(key, st, ws)
}

// sweep flushes and frees the state of every stream that has not seen an
// event for more than evict shard events, bounding memory under stream-key
// churn. Run amortized (every evict events), each stream's state lives at
// most ~2×evict events past its last activity. It reports false on a
// serving error, like emit.
func (s *shard) sweep(evict int64) bool {
	var idle []string
	for key, st := range s.streams {
		if s.clock-st.lastSeen > evict {
			idle = append(idle, key)
		}
	}
	sort.Strings(idle)
	for _, key := range idle {
		st := s.streams[key]
		if !s.emit(key, st, st.win.FlushInto(s.wsScratch[:0])) {
			return false
		}
		delete(s.streams, key)
		if s.led != nil {
			s.led.EvictStream(key)
		}
		if s.wal != nil {
			// Logged after the in-memory archive (committed with the
			// message's group commit): a crash in between leaves the
			// stream's spend live instead of retired, never lost.
			s.wal.StageEvict(key)
		}
		s.stats.streamsEvicted.Inc()
	}
	// Evicted streams invalidate the lookup cache.
	s.lastKey, s.lastStream = "", nil
	return true
}

// emit serves all windows one push closed — as a single engine batch, so
// stateful mechanisms see the windows in stream order and the per-call
// overhead is paid once — and publishes every released answer tagged with
// the stream key, per-stream window index, and the control-plane epoch it
// was served under. Pending epochs are applied before the batch, never
// within one, so each answer's epoch names exactly the query and private
// sets that produced it. Windows closed while no query is registered are
// counted but answer nothing (the window index still advances, keeping
// indices aligned with time). It reports false on the first engine error,
// which it records for Close to surface.
//
// The instrumented wrapper times only emits that actually serve windows —
// the common no-windows-closed call reads no clock, which is what keeps the
// obs=on hot path within noise of obs=off.
func (s *shard) emit(key string, st *streamState, ws []stream.Window) bool {
	o := s.rt.obs
	if o == nil || len(ws) == 0 {
		return s.emitServe(key, st, ws)
	}
	start := time.Now()
	ok := s.emitServe(key, st, ws)
	o.serve[s.id].ObserveSince(start)
	return ok
}

func (s *shard) emitServe(key string, st *streamState, ws []stream.Window) bool {
	s.wsScratch = ws[:0]
	if len(ws) == 0 {
		return true
	}
	if !s.syncControl() {
		return false
	}
	s.stats.windowsClosed.Add(int64(len(ws)))
	if panes := st.win.Panes(); panes != st.panesSeen {
		s.stats.panesClosed.Add(panes - st.panesSeen)
		st.panesSeen = panes
	}
	if len(s.cur.targets) == 0 {
		if s.rt.ledger != nil {
			// Queryless windows release nothing and spend nothing, but
			// they still advance the stream's w-event composition ring.
			s.rt.ledger.Skip(st.bud, len(ws))
		}
		// Skipped windows are still logged: replay must advance the
		// stream's window index and ring past them.
		s.logWindows(key, st, ws, durable.DecisionSkipped, 0)
		st.next += len(ws)
		return true
	}
	if s.led != nil {
		return s.emitBudgeted(key, st, ws)
	}
	answers, err := s.engine.ProcessWindowsInto(s.ansScratch[:0], ws)
	if err != nil {
		return s.fail(err)
	}
	s.ansScratch = answers
	s.pubAns = s.pubAns[:0]
	sliding := s.rt.cfg.sliding()
	for _, a := range answers {
		a.WindowIndex += st.next
		if sliding {
			// Sliding answers carry interval-only windows: the pane path
			// never materializes per-window event lists, and the tally
			// buffers are windower-owned scratch reclaimed on the next
			// push, so neither may escape to subscribers.
			a.Window.Events = nil
			a.Window.TypeCounts = nil
		}
		s.pubAns = append(s.pubAns, Answer{Stream: key, Shard: s.id, Epoch: s.cur.epoch, TraceNanos: s.trace0, Answer: a})
	}
	// Unbudgeted releases carry no ε charge, but the records must still hit
	// the WAL before the bus sees the answers: replay advances window
	// positions from them. publish defers the answers past the message-level
	// group commit when a WAL is attached.
	s.logWindows(key, st, ws, durable.DecisionAdmitted, 0)
	s.publish(s.pubAns)
	s.stats.answersEmitted.Add(int64(len(answers)))
	st.next += len(ws)
	return true
}

// logWindows stages one WAL record per window of an emit that decided them
// all the same way (skipped or unbudgeted-admitted; the budgeted path stages
// per decision in emitBudgeted). No-op without durability.
func (s *shard) logWindows(key string, st *streamState, ws []stream.Window, dec durable.Decision, charge float64) {
	if s.wal == nil {
		return
	}
	for i := range ws {
		s.wal.StageWindow(key, int64(st.next+i), int64(ws[i].Start), dec, charge, uint64(s.cur.budgetEpoch))
	}
}

// publish hands one emit's answers to the bus — immediately when the shard
// has no WAL, deferred into defAns until the message-level group commit
// otherwise, so no answer ever precedes the WAL records that cover it. One
// bus lookup per flush; sends stay outside the bus lock.
func (s *shard) publish(ans []Answer) {
	if len(ans) == 0 {
		return
	}
	if s.wal != nil {
		s.defAns = append(s.defAns, ans...)
		return
	}
	s.pubTargets = s.rt.bus.collect(s.pubTargets[:0], ans)
	for _, t := range s.pubTargets {
		t.sub.send(ans[t.idx])
	}
}

// flushWAL group-commits every record staged while serving the current
// ingest message with one write, then publishes the deferred answers those
// records cover — append-before-publish at one write(2) per message instead
// of one per closed window. A commit error (including an injected crash)
// fails the shard and drops the deferred answers, so nothing is published —
// the one-sided recovery invariant: spend may be over-counted after a crash,
// never under-counted.
func (s *shard) flushWAL() bool {
	if s.wal == nil {
		return true
	}
	if err := s.wal.Commit(); err != nil {
		s.defAns = s.defAns[:0]
		return s.fail(err)
	}
	if len(s.defAns) > 0 {
		s.pubTargets = s.rt.bus.collect(s.pubTargets[:0], s.defAns)
		for _, t := range s.pubTargets {
			t.sub.send(s.defAns[t.idx])
		}
		s.defAns = s.defAns[:0]
	}
	return true
}
