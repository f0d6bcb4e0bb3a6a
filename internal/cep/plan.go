package cep

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// Plan is a compiled query evaluator and the only way the system evaluates
// a pattern. The expression tree is compiled once — at registration, or
// once per control-plane epoch in the streaming runtime — into
//
//   - a required-type set: event types that must all be present for the
//     pattern to possibly match, letting the hot path skip windows that
//     cannot answer true with a handful of map lookups;
//   - a flat postfix program over presence indicators (no tree
//     re-traversal, no interface dispatch, no allocation per evaluation),
//     equivalent to the reference interpreter EvalIndicators;
//   - for Seq-of-Atom patterns, a pool of incremental NFA matchers for
//     concrete-window detection with early exit on the first instance.
//
// A Plan is immutable after Compile and safe for concurrent use by any
// number of goroutines; per-evaluation state lives on the caller's stack or
// in the internal NFA pool.
type Plan struct {
	query Query

	// constVal short-circuits evaluation over indicators: +1 when the
	// pattern is always detected, -1 when it can never be (e.g. TIMES with
	// Min > 1, whose repetition count a released existence bit cannot
	// witness), 0 when the answer depends on the indicators.
	constVal int8
	// required are the types that must all be present, under indicator
	// semantics, for the pattern to possibly match.
	required []event.Type
	// requiredWindow is the analogous set under concrete-window semantics
	// (TIMES is satisfiable there, so the sets can differ).
	requiredWindow []event.Type

	// ind is the indicator program, one leaf per distinct type. It is nil
	// for constant patterns and for trees of SEQ/AND over atoms, whose
	// answer is exactly "all required types present".
	ind *program

	// seq is non-nil for Seq-of-Atom patterns; nfas pools compiled
	// matchers for concrete-window detection.
	seq  *Seq
	nfas sync.Pool
	// dropped accumulates partial matches evicted by the pooled NFAs'
	// maxRuns bound (see WithMaxRuns) — the operator signal for matcher
	// memory pressure.
	dropped atomic.Uint64
}

// Compile validates the query and compiles it into a Plan. opts configure
// the pooled NFA matchers used for Seq-of-Atom patterns (e.g. WithMaxRuns);
// they are ignored for other pattern shapes.
func Compile(q Query, opts ...NFAOption) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{query: q}
	l := &lowering{}
	n := l.lower(q.Pattern)
	switch n.kind {
	case pTrue:
		p.constVal = 1
	case pFalse:
		p.constVal = -1
	default:
		p.required = requiredTypes(n)
		if !conjunctiveOnly(n) {
			p.ind = compileProgram(n)
		}
	}
	// Without TIMES both semantics lower to the same tree (SEQ relaxes to
	// a conjunction under either), so only TIMES needs a second lowering.
	if l.times {
		p.requiredWindow = requiredTypes((&lowering{window: true}).lower(q.Pattern))
	} else {
		p.requiredWindow = p.required
	}
	if s, ok := q.Pattern.(*Seq); ok && seqOfAtoms(s) {
		p.seq = s
		p.nfas.New = func() any {
			m, err := CompileSeq(q.Name, s, 0, opts...)
			if err != nil {
				// Unreachable: the pattern was validated and is
				// Seq-of-Atoms.
				panic(err)
			}
			return m
		}
	}
	return p, nil
}

// MustCompile is Compile for queries known to be valid; it panics on error.
func MustCompile(q Query, opts ...NFAOption) *Plan {
	p, err := Compile(q, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Query returns the compiled query.
func (p *Plan) Query() Query { return p.query }

// RequiredTypes returns the event types that must all be present in a
// window's released indicators for the pattern to possibly match. The
// returned slice is shared and must not be modified.
func (p *Plan) RequiredTypes() []event.Type { return p.required }

// Dropped reports how many partial matches the plan's pooled NFAs have
// evicted under their maxRuns bound since compilation.
func (p *Plan) Dropped() uint64 { return p.dropped.Load() }

// EvalIndicators answers the query over one window's released presence
// indicators, with the same answer as the reference interpreter
// EvalIndicators. It allocates nothing and is safe for concurrent use.
func (p *Plan) EvalIndicators(present map[event.Type]bool) bool {
	if p.constVal != 0 {
		return p.constVal > 0
	}
	for _, t := range p.required {
		if !present[t] {
			return false
		}
	}
	if p.ind == nil {
		return true
	}
	return p.ind.eval(present)
}

// missingRequired reports whether a required type is absent from the window,
// in which case the pattern cannot match there.
func (p *Plan) missingRequired(w stream.Window) bool {
	for _, t := range p.requiredWindow {
		if !w.Contains(t) {
			return true
		}
	}
	return false
}

// EvalWindow answers the query over one concrete window and returns a
// witness instance when the pattern occurs. Seq-of-Atom patterns run on a
// pooled incremental NFA with early exit on the first instance; other
// shapes prune on the required-type set and then walk the expression tree
// (see Times and Seq for the operator semantics).
func (p *Plan) EvalWindow(w stream.Window) (bool, []event.Event) {
	if p.missingRequired(w) {
		return false, nil
	}
	if p.seq != nil {
		m := p.nfas.Get().(*NFA)
		witness, ok := m.FirstMatch(w.Events)
		p.release(m)
		return ok, witness
	}
	return evalWindow(p.query.Pattern, w)
}

// DetectWindow is EvalWindow without the witness: it answers only whether
// the pattern occurs in the window.
func (p *Plan) DetectWindow(w stream.Window) bool {
	ok, _ := p.EvalWindow(w)
	return ok
}

// release harvests a pooled NFA's eviction counter, resets it, and returns
// it to the pool.
func (p *Plan) release(m *NFA) {
	if d := m.Dropped(); d > 0 {
		p.dropped.Add(d)
	}
	m.Reset()
	p.nfas.Put(m)
}

// seqOfAtoms reports whether every part of the sequence is an Atom — the
// shape CompileSeq accepts.
func seqOfAtoms(s *Seq) bool {
	for _, part := range s.Parts {
		if _, ok := part.(*Atom); !ok {
			return false
		}
	}
	return len(s.Parts) > 0
}

// --- lowering ---------------------------------------------------------------

// pnode is the lowered, constant-folded boolean form of an expression: a
// tree of conjunctions, disjunctions and negations over atom leaves.
type pnode struct {
	kind  pkind
	atom  *Atom
	parts []*pnode
}

type pkind uint8

const (
	pAtom pkind = iota
	pAll
	pAny
	pNot
	pTrue
	pFalse
)

var (
	nodeTrue  = &pnode{kind: pTrue}
	nodeFalse = &pnode{kind: pFalse}
)

// lowering lowers expression trees to pnodes, folding constants so a
// compiled program never evaluates dead branches.
//
// Under indicator semantics (window false) the lowering is exact and mirrors
// EvalIndicators: SEQ degrades to conjunction, since order is not observable
// in released existence bits, and TIMES folds to its inner expression
// (Min ≤ 1) or constant false (Min > 1). TestPropertyPlanIndicators asserts
// the equivalence over randomized expressions.
//
// Under concrete-window semantics (window true) SEQ and TIMES need order
// and counts, which a boolean tree cannot express. They are relaxed to a
// conjunction and to the inner expression: the tree is then no program, but
// it still yields the required types. times records whether a TIMES node
// occurred — the one operator whose two lowerings differ.
type lowering struct {
	window bool
	times  bool
}

func (l *lowering) lower(e Expr) *pnode {
	switch x := e.(type) {
	case *Atom:
		return &pnode{kind: pAtom, atom: x}
	case *Seq:
		return l.combine(pAll, x.Parts)
	case *And:
		return l.combine(pAll, x.Parts)
	case *Or:
		return l.combine(pAny, x.Parts)
	case *Neg:
		inner := l.lower(x.Inner)
		switch inner.kind {
		case pTrue:
			return nodeFalse
		case pFalse:
			return nodeTrue
		case pNot:
			return inner.parts[0]
		}
		return &pnode{kind: pNot, parts: []*pnode{inner}}
	case *Times:
		l.times = true
		if x.Min > 1 && !l.window {
			// A released existence bit can witness one occurrence at
			// most (see EvalIndicators).
			return nodeFalse
		}
		// Validate enforces Min >= 1: at least one occurrence of the
		// inner pattern is needed.
		return l.lower(x.Inner)
	default:
		// Unknown node kinds are rejected by Validate before Compile.
		panic("cep: unknown expression node in plan lowering")
	}
}

// combine lowers a conjunction (kind pAll) or disjunction (pAny) of parts.
// A part equal to the operator's identity is dropped; a part equal to its
// absorbing element decides the whole node.
func (l *lowering) combine(kind pkind, parts []Expr) *pnode {
	identity, absorbing := nodeTrue, nodeFalse
	if kind == pAny {
		identity, absorbing = nodeFalse, nodeTrue
	}
	out := make([]*pnode, 0, len(parts))
	for _, part := range parts {
		n := l.lower(part)
		switch n {
		case identity:
			continue
		case absorbing:
			return absorbing
		}
		out = append(out, n)
	}
	switch len(out) {
	case 0:
		return identity
	case 1:
		return out[0]
	}
	return &pnode{kind: kind, parts: out}
}

// requiredTypes computes the sorted types that must all be present for the
// lowered pattern to possibly match: an atom requires its type, a
// conjunction the union over its parts, a disjunction the intersection
// (only a type every branch needs is truly required), and a negation
// nothing (it can match an empty window). Predicates only narrow an atom,
// so its type stays required.
func requiredTypes(n *pnode) []event.Type {
	set := make(map[event.Type]bool)
	addRequired(set, n)
	out := make([]event.Type, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// addRequired adds the types n requires to set.
func addRequired(set map[event.Type]bool, n *pnode) {
	switch n.kind {
	case pAtom:
		set[n.atom.Type] = true
	case pAll:
		for _, part := range n.parts {
			addRequired(set, part)
		}
	case pAny:
		common := make(map[event.Type]bool)
		addRequired(common, n.parts[0])
		for _, part := range n.parts[1:] {
			sub := make(map[event.Type]bool)
			addRequired(sub, part)
			maps.DeleteFunc(common, func(t event.Type, _ bool) bool { return !sub[t] })
		}
		maps.Copy(set, common)
	}
	// pNot, pTrue and pFalse require nothing.
}

// conjunctiveOnly reports whether the lowered pattern is a pure conjunction
// of atoms, for which "all required types present" is the full indicator
// answer and no program is needed.
func conjunctiveOnly(n *pnode) bool {
	switch n.kind {
	case pAtom:
		return true
	case pAll:
		for _, part := range n.parts {
			if !conjunctiveOnly(part) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// --- programs ---------------------------------------------------------------

// program is a flat postfix form of a lowered, non-constant pnode tree over
// released indicators: a leaf is its type's presence bit.
type program struct {
	instrs   []planInstr
	leaves   []event.Type // operand table indexed by opLeaf's arg
	stackCap int
}

// planInstr is one postfix instruction.
type planInstr struct {
	op  planOp
	arg int32 // leaf index for opLeaf; child count for opAll/opAny
}

type planOp uint8

const (
	opLeaf planOp = iota // push the value of leaves[arg]
	opAll                // pop arg values, push their conjunction
	opAny                // pop arg values, push their disjunction
	opNot                // negate the top of stack
)

// compileProgram emits the postfix program of a lowered tree whose root is
// not constant (constants fold away below the root). Atoms of one type share
// one operand slot.
func compileProgram(n *pnode) *program {
	c := &emitter{prog: &program{}, slots: make(map[event.Type]int32)}
	c.emit(n)
	return c.prog
}

type emitter struct {
	prog  *program
	slots map[event.Type]int32
	depth int
}

func (c *emitter) push(in planInstr, delta int) {
	c.prog.instrs = append(c.prog.instrs, in)
	c.depth += delta
	c.prog.stackCap = max(c.prog.stackCap, c.depth)
}

func (c *emitter) emit(n *pnode) {
	switch n.kind {
	case pAtom:
		t := n.atom.Type
		i, ok := c.slots[t]
		if !ok {
			i = int32(len(c.prog.leaves))
			c.prog.leaves = append(c.prog.leaves, t)
			c.slots[t] = i
		}
		c.push(planInstr{op: opLeaf, arg: i}, 1)
	case pAll, pAny:
		for _, part := range n.parts {
			c.emit(part)
		}
		op := opAll
		if n.kind == pAny {
			op = opAny
		}
		c.push(planInstr{op: op, arg: int32(len(n.parts))}, 1-len(n.parts))
	case pNot:
		c.emit(n.parts[0])
		c.push(planInstr{op: opNot}, 0)
	default:
		panic("cep: constant node below the root of a lowered tree")
	}
}

// eval runs the program over one window's presence indicators.
func (pr *program) eval(present map[event.Type]bool) bool {
	var scratch [16]bool
	st := scratch[:0]
	if pr.stackCap > len(scratch) {
		st = make([]bool, 0, pr.stackCap)
	}
	for _, in := range pr.instrs {
		switch in.op {
		case opLeaf:
			st = append(st, present[pr.leaves[in.arg]])
		case opAll:
			n := len(st) - int(in.arg)
			st = append(st[:n], !slices.Contains(st[n:], false))
		case opAny:
			n := len(st) - int(in.arg)
			st = append(st[:n], slices.Contains(st[n:], true))
		case opNot:
			st[len(st)-1] = !st[len(st)-1]
		}
	}
	return st[0]
}
