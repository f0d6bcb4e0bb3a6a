package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// ErrUnknownTarget is returned (wrapped, with the query name) by
// UnregisterTarget when no target query with that name is registered.
var ErrUnknownTarget = errors.New("core: unknown target query")

// Answer is one privacy-protected query answer delivered to a data consumer:
// the window it refers to and the released binary detection.
type Answer struct {
	// Query names the target query answered.
	Query string
	// WindowIndex is the position of the window in the stream.
	WindowIndex int
	// Window is the covered interval.
	Window stream.Window
	// Detected is the released (perturbed) binary answer.
	Detected bool
}

// PrivateEngine is the trusted CEP engine with privacy protection wired in
// (Fig. 2). In the setup phase, data subjects register private pattern types
// and a mechanism protecting them, and data consumers register target
// queries. In the service phase, raw events flow in, windows are formed, the
// mechanism perturbs the existence indicators of private-pattern elements,
// and target queries are answered from the released indicators.
//
// PrivateEngine is safe for concurrent registration and concurrent service
// calls: every ProcessWindows call derives its own RNG from the engine seed
// and a call counter, so randomness is never shared between goroutines.
// (All provided mechanisms keep their per-sequence state local to Run; a
// custom Mechanism must do the same to be served concurrently.)
type PrivateEngine struct {
	mu        sync.RWMutex
	mechanism Mechanism
	private   []PatternType
	targets   map[string]cep.Query
	// snap is an immutable snapshot of the serving state — the name-sorted
	// target queries, their compiled plans, and the relevant-type union —
	// rebuilt on every registration change. The service phase reads the
	// snapshot with one RLock instead of re-deriving types and re-walking
	// expression trees per call, and a whole ProcessWindows batch is
	// answered against one consistent target set even while registrations
	// churn.
	snap  *planSet
	seed  int64
	calls atomic.Int64
}

// planSet is one immutable epoch of the engine's serving state: the sorted
// target queries, the compiled plan of each (parallel to targets), and the
// union of private-pattern element types and target-query types that
// indicators must cover. Compiled once per registration change, shared by
// every in-flight service call.
type planSet struct {
	targets []cep.Query
	plans   []*cep.Plan
	types   []event.Type
}

// buildPlanSet compiles the serving state for a sorted target snapshot.
// Queries are validated at registration, so compilation cannot fail.
func buildPlanSet(private []PatternType, targets []cep.Query, plans []*cep.Plan) *planSet {
	ps := &planSet{targets: targets, plans: plans}
	if ps.plans == nil {
		ps.plans = make([]*cep.Plan, len(targets))
		for i, q := range targets {
			ps.plans[i] = cep.MustCompile(q)
		}
	}
	seen := make(map[event.Type]bool)
	add := func(ts []event.Type) {
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				ps.types = append(ps.types, t)
			}
		}
	}
	for _, pt := range private {
		add(pt.Elements)
	}
	for _, q := range targets {
		add(q.Pattern.Types())
	}
	sort.Slice(ps.types, func(i, j int) bool { return ps.types[i] < ps.types[j] })
	return ps
}

// NewPrivateEngine builds an engine around the given mechanism and the
// private pattern types it protects. seed drives the mechanism's randomness.
func NewPrivateEngine(m Mechanism, private []PatternType, seed int64) (*PrivateEngine, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil mechanism")
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: no private pattern types registered")
	}
	pe := &PrivateEngine{
		mechanism: m,
		private:   private,
		targets:   make(map[string]cep.Query),
		seed:      seed,
	}
	pe.snap = buildPlanSet(private, nil, nil)
	return pe, nil
}

// MixSeed derives a decorrelated child seed from a parent seed and a step
// index with one splitmix64 round: a golden-ratio increment followed by an
// avalanche finalizer. The avalanche matters — with a purely linear mix,
// (seed, step) pairs whose sums coincide would collide, and two engines
// would draw identical noise for different releases.
func MixSeed(seed, step int64) int64 {
	z := uint64(seed) + uint64(step)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// splitmix64Source is a rand.Source64 whose state is the full 64-bit seed.
// The stock rand.NewSource reduces its seed mod 2^31−1, which would collapse
// MixSeed's decorrelated space to ~2^31 values and reintroduce identical
// noise sequences between service calls after ~2^15.5 of them (birthday
// bound). Construction is also O(1), versus the stock source's ~600-word
// reseeding.
type splitmix64Source struct{ state uint64 }

func (s *splitmix64Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64Source) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64Source) Seed(seed int64) { s.state = uint64(seed) }

// rngPool recycles per-call RNGs: the Rand and its source are reseeded on
// every acquisition, so pooling changes no released noise sequence — it only
// removes two allocations from the service hot path.
var rngPool = sync.Pool{
	New: func() any {
		p := &pooledRNG{}
		p.r = rand.New(&p.src)
		return p
	},
}

type pooledRNG struct {
	src splitmix64Source
	r   *rand.Rand
}

// callRNG returns an RNG for one service call, seeded from the engine seed
// and the call index via MixSeed. Sequential callers therefore stay
// reproducible while concurrent callers each get independent randomness.
// Callers return it to the pool via putRNG once the mechanism has run.
func (pe *PrivateEngine) callRNG() *pooledRNG {
	n := pe.calls.Add(1) // 1-based so call 0 does not reuse the raw seed
	p := rngPool.Get().(*pooledRNG)
	p.r.Seed(MixSeed(pe.seed, n))
	return p
}

func putRNG(p *pooledRNG) { rngPool.Put(p) }

// Mechanism returns the engine's mechanism. It is immutable after
// construction; the streaming runtime reads its TotalEpsilon as the
// per-window release charge for privacy-budget accounting.
func (pe *PrivateEngine) Mechanism() Mechanism { return pe.mechanism }

// RegisterTarget adds a data consumer's target query, replacing any
// registered query with the same name.
func (pe *PrivateEngine) RegisterTarget(q cep.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.targets[q.Name] = q
	pe.rebuildSnapshot()
	return nil
}

// UnregisterTarget removes the named target query, e.g. when a data consumer
// cancels it. It returns ErrUnknownTarget (wrapped) when no such query is
// registered. Service calls already in flight keep answering against the
// snapshot they started with; later calls no longer see the query.
func (pe *PrivateEngine) UnregisterTarget(name string) error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if _, ok := pe.targets[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	delete(pe.targets, name)
	pe.rebuildSnapshot()
	return nil
}

// SetTargets replaces the whole registered target set in one step — the
// bulk form of RegisterTarget/UnregisterTarget for callers that maintain the
// desired set elsewhere (the streaming runtime's control plane does). The
// snapshot is rebuilt once, so applying an epoch with n queries costs one
// sort instead of n.
func (pe *PrivateEngine) SetTargets(qs []cep.Query) error {
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return err
		}
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.targets = make(map[string]cep.Query, len(qs))
	for _, q := range qs {
		pe.targets[q.Name] = q
	}
	pe.rebuildSnapshot()
	return nil
}

// rebuildSnapshot rematerializes the sorted serving snapshot, compiling a
// plan per target; callers hold pe.mu.
func (pe *PrivateEngine) rebuildSnapshot() {
	out := make([]cep.Query, 0, len(pe.targets))
	for _, q := range pe.targets {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	pe.snap = buildPlanSet(pe.private, out, nil)
}

// snapshot returns the current serving snapshot. The returned set and its
// slices are shared and must not be modified.
func (pe *PrivateEngine) snapshot() *planSet {
	pe.mu.RLock()
	defer pe.mu.RUnlock()
	return pe.snap
}

// Targets returns the registered target queries sorted by name.
func (pe *PrivateEngine) Targets() []cep.Query {
	snap := pe.snapshot().targets
	out := make([]cep.Query, len(snap))
	copy(out, snap)
	return out
}

// SetTargetPlans replaces the registered target set with already-compiled
// plans, name-sorted — the streaming runtime's control plane compiles each
// query once per epoch and hands every shard's engine the same shared plan
// set, instead of each shard recompiling on SetTargets.
func (pe *PrivateEngine) SetTargetPlans(plans []*cep.Plan) error {
	for i := range plans {
		if plans[i] == nil {
			return fmt.Errorf("core: nil plan at index %d", i)
		}
	}
	// Sort queries and plans as pairs, so an unsorted caller can never
	// pair a query name with another query's plan.
	plans = append([]*cep.Plan(nil), plans...)
	sort.Slice(plans, func(i, j int) bool { return plans[i].Query().Name < plans[j].Query().Name })
	targets := make([]cep.Query, len(plans))
	for i, p := range plans {
		targets[i] = p.Query()
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.targets = make(map[string]cep.Query, len(targets))
	for _, q := range targets {
		pe.targets[q.Name] = q
	}
	pe.snap = buildPlanSet(pe.private, targets, plans)
	return nil
}

// RunsDropped reports the total partial matches evicted across the target
// plans' pooled NFA matchers — the maxRuns pressure signal, aggregated for
// operator snapshots.
func (pe *PrivateEngine) RunsDropped() uint64 {
	var total uint64
	for _, p := range pe.snapshot().plans {
		if p != nil {
			total += p.Dropped()
		}
	}
	return total
}

// indicatorScratch is the reusable buffer of one ProcessWindows call: the
// indicator-window slice and its per-window maps are cleared and refilled
// instead of reallocated. Safe because Mechanism.Run must not retain its
// input windows (see the interface contract).
type indicatorScratch struct {
	wins []IndicatorWindow
	// counts holds the scratch-owned Counts maps, parallel to wins,
	// cleared and refilled instead of reallocated.
	counts []map[event.Type]int
	// released holds the scratch-owned release maps handed to a
	// ReleaseReuser mechanism, parallel to wins; prepared only when
	// requested.
	released []map[event.Type]bool
	// lastTypes remembers the type slice of the previous fill and fresh
	// how many leading wins entries that fill wrote: when the same
	// plan-set epoch fills again (the steady serving state), those
	// entries' Present maps already hold exactly these keys and are
	// overwritten in place instead of cleared and rebuilt.
	lastTypes []event.Type
	fresh     int
}

// sameTypes reports whether two type slices are the identical slice.
func sameTypes(a, b []event.Type) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

var indicatorPool = sync.Pool{New: func() any { return new(indicatorScratch) }}

// fill rebuilds the scratch to mirror ws over the given types. When
// wantReleased is set it also prepares one release map per window for a
// ReleaseReuser mechanism.
func (sc *indicatorScratch) fill(ws []stream.Window, types []event.Type, wantReleased bool) []IndicatorWindow {
	// Grow each slice against its own capacity: append can round the
	// backing arrays up to different size classes, so one guard for all
	// three would leave the smaller ones behind and panic on reslice.
	if n := len(ws); cap(sc.wins) < n {
		sc.wins = append(sc.wins[:cap(sc.wins)], make([]IndicatorWindow, n-cap(sc.wins))...)
	}
	if n := len(ws); cap(sc.counts) < n {
		sc.counts = append(sc.counts[:cap(sc.counts)], make([]map[event.Type]int, n-cap(sc.counts))...)
	}
	if n := len(ws); cap(sc.released) < n {
		sc.released = append(sc.released[:cap(sc.released)], make([]map[event.Type]bool, n-cap(sc.released))...)
	}
	sc.wins = sc.wins[:len(ws)]
	sc.counts = sc.counts[:len(ws)]
	sc.released = sc.released[:len(ws)]
	reuseKeys := sameTypes(types, sc.lastTypes)
	fresh := sc.fresh
	sc.lastTypes = types
	if len(ws) > fresh || !reuseKeys {
		sc.fresh = len(ws)
	}
	for i := range sc.wins {
		iw := &sc.wins[i]
		iw.Index = i
		refill := !reuseKeys || i >= fresh
		if iw.Present == nil {
			iw.Present = make(map[event.Type]bool, len(types))
		} else if refill {
			clear(iw.Present)
		}
		if sc.counts[i] == nil {
			sc.counts[i] = make(map[event.Type]int, len(types))
		} else if refill {
			clear(sc.counts[i])
		}
		iw.Counts = sc.counts[i]
		if wantReleased {
			if sc.released[i] == nil {
				sc.released[i] = make(map[event.Type]bool, len(types))
			} else if refill {
				clear(sc.released[i])
			}
		}
		// Window.Count reads the windower's tally when present, so
		// indexing a served window never rescans its events.
		for _, t := range types {
			c := ws[i].Count(t)
			iw.Counts[t] = c
			iw.Present[t] = c > 0
		}
	}
	return sc.wins
}

// ProcessWindows runs the service phase over a batch of windows: perturb
// indicators with the mechanism, then answer every target query on the
// released indicators. Answers are ordered by window then query name.
func (pe *PrivateEngine) ProcessWindows(ws []stream.Window) ([]Answer, error) {
	return pe.ProcessWindowsInto(nil, ws)
}

// ProcessWindowsInto is ProcessWindows appending into dst, so a streaming
// caller can reuse one answer buffer across calls: answers are valid until
// the caller reuses the buffer. Windows that carry TypeCounts (cut by the
// streaming Windower) are indexed without rescanning their events.
func (pe *PrivateEngine) ProcessWindowsInto(dst []Answer, ws []stream.Window) ([]Answer, error) {
	ps := pe.snapshot()
	if len(ps.targets) == 0 {
		return nil, fmt.Errorf("core: no target queries registered")
	}
	reuser, reuse := pe.mechanism.(ReleaseReuser)
	scratch := indicatorPool.Get().(*indicatorScratch)
	iws := scratch.fill(ws, ps.types, reuse)
	rng := pe.callRNG()
	var released []map[event.Type]bool
	if reuse {
		released = reuser.RunInto(rng.r, iws, scratch.released)
	} else {
		released = pe.mechanism.Run(rng.r, iws)
	}
	putRNG(rng)
	if len(released) != len(ws) {
		indicatorPool.Put(scratch)
		return nil, fmt.Errorf("core: mechanism %q returned %d windows for %d inputs",
			pe.mechanism.Name(), len(released), len(ws))
	}
	// The scratch (including pooled release maps) stays out of the pool
	// until the answers below have been computed from it.
	defer indicatorPool.Put(scratch)
	if need := len(dst) + len(ws)*len(ps.targets); cap(dst) < need {
		grown := make([]Answer, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i, w := range ws {
		rel := released[i]
		for j, q := range ps.targets {
			dst = append(dst, Answer{
				Query:       q.Name,
				WindowIndex: i,
				Window:      w,
				Detected:    ps.plans[j].EvalIndicators(rel),
			})
		}
	}
	return dst, nil
}

// ProcessEvents cuts a time-ordered event slice into tumbling windows of the
// given width and runs ProcessWindows.
func (pe *PrivateEngine) ProcessEvents(evs []event.Event, width event.Timestamp) ([]Answer, error) {
	return pe.ProcessWindows(stream.WindowSlice(evs, width))
}

// Serve consumes an event stream, windows it, and emits protected answers as
// windows complete. It terminates when the input closes or done is closed.
// Note: each window is processed as its own batch, so stateful mechanisms
// see windows one at a time in order.
func (pe *PrivateEngine) Serve(done <-chan struct{}, in stream.Stream[event.Event], width event.Timestamp) stream.Stream[Answer] {
	out := make(chan Answer)
	go func() {
		defer close(out)
		idx := 0
		for w := range stream.Tumbling(done, in, width) {
			answers, err := pe.ProcessWindows([]stream.Window{w})
			if err != nil {
				return
			}
			for _, a := range answers {
				a.WindowIndex = idx
				select {
				case out <- a:
				case <-done:
					return
				}
			}
			idx++
		}
	}()
	return out
}
