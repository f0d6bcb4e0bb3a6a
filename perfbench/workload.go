package main

import (
	"fmt"
	"math/rand"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
)

// servingSpec describes one serving workload: the traffic two tenants send
// and the runtime configuration that serves it.
type servingSpec struct {
	name string
	// openLoop sends on a fixed schedule at rate events/s in total;
	// otherwise each tenant keeps one batch outstanding (closed loop).
	openLoop bool
	rate     float64
	// answerDepth > 0 closes the loop over answers as well: a tenant sends
	// batch k only once every answer closed by batches 0..k-answerDepth has
	// arrived, so no more than answerDepth batches' answers are ever in
	// flight and a replay ring that holds them never overflows.
	answerDepth int
	// streams is the number of stream keys per tenant and batch the events
	// per ingest batch; each batch carries batch/streams consecutive events
	// of every stream, so stream clocks advance in lockstep.
	streams, batch int
	width, slide   int64
	queries        []string
	// budget enables the ledger (Deny policy, a grant no stream exhausts)
	// and wal the write-ahead log with fsync=interval.
	budget, wal bool
	// perQuerySubs makes the second tenant open one subscription per query
	// instead of one subscribe-all subscription.
	perQuerySubs bool
}

// perStream is the number of events of each stream in one batch.
func (s servingSpec) perStream() int64 { return int64(s.batch / s.streams) }

// answersAfter is how many answers one tenant receives, over all its
// subscriptions, once its first n batches closed their windows: both
// subscription shapes see every query's answer once.
func (s servingSpec) answersAfter(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.streams) * ((n*s.perStream() - 1) / s.slide) * int64(len(s.queries))
}

// closingBatch is the index of the batch that carries a stream's first
// event with time >= end: the event that closes a window ending at end.
func (s servingSpec) closingBatch(end int64) int64 { return end / s.perStream() }

var servingSpecs = map[string]servingSpec{
	"ingest-tumbling": {
		name:    "ingest-tumbling",
		streams: 64, batch: 256,
		width: 256, slide: 256,
		queries: []string{
			"AND(e0, e3)", "SEQ(e1, e4, e5)", // dense
			"AND(e2, e12)", "OR(e13, AND(e1, e14))", // selective
		},
		// Every 64th batch closes all 64 streams' windows at once: 256
		// answers per tenant, the whole replay ring. Acks alone let the
		// next burst arrive before a stalled subscriber drained the last.
		answerDepth: 2,
	},
	"answer-sliding":        answerSliding("answer-sliding", 100_000),
	"answer-sliding-closed": answerSlidingClosed(),
}

// answerSliding is the delivery-heavy shape: sliding windows, twelve
// queries, budget and WAL on, and two subscription shapes, sent open loop at
// rate events/s in total. At 100k events/s it sits at the knee of a 2-vCPU
// VM: its latency median ranged from 1.5 ms to 21.9 ms over ten runs as
// other load on the host came and went, and the replay rings overflow.
func answerSliding(name string, rate float64) servingSpec {
	return servingSpec{
		name:     name,
		openLoop: rate > 0, rate: rate,
		streams: 8, batch: 128,
		width: 128, slide: 16,
		queries: []string{
			"AND(e0, e3)", "SEQ(e1, e4, e5)", "AND(e0, e1)", "OR(e2, e6)",
			"SEQ(e3, e7)", "AND(e8, e9, e10)", "AND(e2, NEG(e15))", "OR(AND(e1, e15), e11)",
			"AND(e2, e12)", "OR(e13, AND(e1, e14))", "OR(e12, e13)", "AND(e0, e14)",
		},
		budget: true, wal: true, perQuerySubs: true,
	}
}

// answerSlidingClosed is the same shape in a closed loop over answers: with
// ingest acks alone as flow control the generator outruns delivery, the
// replay rings overflow and how many answers are lost depends on the run;
// with at most two batches' answers in flight (192 per tenant, under the
// 256-slot ring) every answer arrives and latency is the trip itself.
func answerSlidingClosed() servingSpec {
	s := answerSliding("answer-sliding-closed", 0)
	s.answerDepth = 2
	return s
}

// Event types e0..e15. Types are drawn from a 4096-slot table: e2 is
// moderately common and e12..e15 are rare, so window presence — and with it
// the truth of the selective queries — varies from window to window.
const numTypes = 16

var typeNames = func() []event.Type {
	ts := make([]event.Type, numTypes)
	for i := range ts {
		ts[i] = event.Type(fmt.Sprintf("e%d", i))
	}
	return ts
}()

var typeTable = func() [4096]uint8 {
	var tab [4096]uint8
	i := 0
	fill := func(t uint8, n int) {
		for ; n > 0; n-- {
			tab[i] = t
			i++
		}
	}
	for _, t := range []uint8{0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11} {
		fill(t, 370)
	}
	fill(2, 18)
	for t := uint8(12); t < 16; t++ {
		fill(t, 2)
	}
	return tab
}()

// privateType is the one protected pattern type of the serving workloads.
func privateType() core.PatternType {
	pt, err := core.NewPatternType("private", "e0", "e1", "e2")
	if err != nil {
		panic(err)
	}
	return pt
}

// parseQueries names the spec's patterns q0, q1, ... with the window width
// as their WITHIN bound.
func (s servingSpec) parseQueries() ([]cep.Query, error) {
	qs := make([]cep.Query, len(s.queries))
	for i, text := range s.queries {
		expr, _, err := cep.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", text, err)
		}
		qs[i] = cep.Query{Name: fmt.Sprintf("q%d", i), Pattern: expr, Window: event.Timestamp(s.width)}
	}
	return qs, nil
}

// tenantNames are the auth tokens (and namespaces) of the two tenants; each
// tenant's stream keys carry its own prefix so a leaked answer is
// recognisable by its stream name alone.
var tenantNames = [2]string{"ta", "tb"}

func streamName(tenant, s int) string { return fmt.Sprintf("%c-s%d", 'a'+tenant, s) }

// generator produces one tenant's batches deterministically from the seed:
// batch k holds, for every stream, the events with times
// [k*perStream, (k+1)*perStream), interleaved across streams. It records
// which types each pane (slide-wide slice of a stream) contains, which is
// all the truth a window needs.
type generator struct {
	spec    servingSpec
	rng     *rand.Rand
	sources []string
	next    int64 // index of the next batch
	buf     []event.Event
	// masks[s][p] is the type-presence bitmask of stream s's pane p.
	masks [][]uint16
}

func newGenerator(spec servingSpec, seed int64, tenant int, prefix string) *generator {
	g := &generator{
		spec:    spec,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(tenant) + 1)),
		sources: make([]string, spec.streams),
		buf:     make([]event.Event, spec.batch),
		masks:   make([][]uint16, spec.streams),
	}
	for s := range g.sources {
		g.sources[s] = prefix + streamName(tenant, s)
	}
	return g
}

// nextBatch fills and returns the next batch. The slice is reused by the
// following call.
func (g *generator) nextBatch() []event.Event {
	per := g.spec.perStream()
	base := g.next * per
	pane := int(base / g.spec.slide)
	i := 0
	for j := int64(0); j < per; j++ {
		for s := 0; s < g.spec.streams; s++ {
			t := typeTable[g.rng.Uint32()&4095]
			g.buf[i] = event.Event{Type: typeNames[t], Time: event.Timestamp(base + j), Source: g.sources[s]}
			i++
			if len(g.masks[s]) <= pane {
				g.masks[s] = append(g.masks[s], 0)
			}
			g.masks[s][pane] |= 1 << t
		}
	}
	g.next++
	return g.buf
}

// maxTime is the newest event time sent on every stream (-1 before the
// first batch).
func (g *generator) maxTime() int64 { return g.next*g.spec.perStream() - 1 }

// closedWindows is how many windows each stream has closed: window k ends
// at (k+1)*slide and closes once an event at or past its end arrived.
func (g *generator) closedWindows() int64 {
	if g.next == 0 {
		return 0
	}
	return g.maxTime() / g.spec.slide
}

// windowMask is the presence mask of stream s's window k: the OR of the
// panes it covers (panes before time 0 are empty).
func (g *generator) windowMask(s int, k int64) uint16 {
	overlap := g.spec.width / g.spec.slide
	var m uint16
	for p := k - overlap + 1; p <= k; p++ {
		if p >= 0 && p < int64(len(g.masks[s])) {
			m |= g.masks[s][p]
		}
	}
	return m
}

func presence(mask uint16) map[event.Type]bool {
	m := make(map[event.Type]bool, numTypes)
	for t := 0; t < numTypes; t++ {
		m[typeNames[t]] = mask&(1<<t) != 0
	}
	return m
}
