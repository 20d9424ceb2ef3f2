package engine

// Construction of one run's streaming operator tree (operator.go)
// from a compiled plan (backend.go). An arm pipeline's row layout is
// the set of its variables in order of first use along the planned
// steps, exactly as the materializing executor lays them out; each
// step — one block of alternative atoms, a single atom for a CQ —
// becomes a scan (first unbound atom), a filter (fully bound atom), or
// an index-nested-loop join whose alternatives union per input row.

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/query"
)

// run builds one operator tree and records, per IR node, the operator
// that implements it and the estimate frozen for it.
type run struct {
	db    *DB
	prof  *Profile
	binds []binding
}

type binding struct {
	ir               *plan.Node
	estRows, estCost float64
	op               Operator
}

func (r *run) bind(ir *plan.Node, estRows, estCost float64, op Operator) {
	r.binds = append(r.binds, binding{ir: ir, estRows: estRows, estCost: estCost, op: op})
}

// annotate writes every recorded operator's row counter and estimate
// into the EXPLAIN node of its IR node.
func (r *run) annotate(at map[*plan.Node]*plan.ExplainNode) {
	for _, b := range r.binds {
		if e := at[b.ir]; e != nil {
			e.EstRows, e.EstCost, e.ActualRows = b.estRows, b.estCost, b.op.Stats().Rows
		}
	}
}

// build instantiates the operators of one compiled node. Multi-arm
// unions run on the parallel union when workers > 1; a cover splits
// the budget between its fragments and the hash join's build drain.
func (r *run) build(c *node, workers int) Operator {
	var op Operator
	switch c.ir.Op {
	case plan.OpExchange:
		return r.build(c.kids[0], workers)
	case plan.OpDistinct:
		op = newDistinct(r.build(c.kids[0], workers))
	case plan.OpUnion:
		arms := make([]Operator, len(c.kids))
		for i, k := range c.kids {
			arms[i] = r.build(k, workers)
		}
		if workers > 1 && len(arms) > 1 {
			op = NewUnionParallel(arms[0].Schema(), arms, workers)
		} else {
			op = newUnion(arms[0].Schema(), arms)
		}
		r.bind(c.ir, plan.UnknownRows, plan.UnknownRows, op)
		return op
	default: // OpProject
		if !isCover(c) {
			return r.buildArm(c)
		}
		per := coverWorkerSplit(workers, len(c.kids))
		frags := make([]Operator, len(c.kids))
		for i, k := range c.kids {
			frags[i] = r.build(k, per)
		}
		hj := NewHashJoin(frags, c.probe, c.builds, workers)
		r.bind(c.ir.Inputs[0], plan.UnknownRows, plan.UnknownRows, hj)
		op = NewProjectNamed(hj, c.ir.Head, r.db)
		r.bind(c.ir, c.est.Card, plan.UnknownRows, op)
		return op
	}
	r.bind(c.ir, c.est.Card, c.est.Cost, op)
	return op
}

// buildArm builds one arm pipeline: source → (filter|join)* → project,
// duplicates preserved. Each step's operator is recorded against its
// Access leaf; a body Join/SemiJoin observes the rows flowing into the
// projection.
func (r *run) buildArm(c *node) Operator {
	colOf := map[string]int{}
	var cols []string
	for _, s := range c.steps {
		for _, a := range c.leaves[s.Atom].Atoms {
			for _, t := range a.Args {
				if !t.IsVar() {
					continue
				}
				if _, ok := colOf[t.Name]; !ok {
					colOf[t.Name] = len(cols)
					cols = append(cols, t.Name)
				}
			}
		}
	}
	bound := make([]bool, len(cols))
	var cur Operator
	for _, s := range c.steps {
		block := c.leaves[s.Atom].Atoms
		alts := make([]*atomJoin, len(block))
		for i, a := range block {
			alts[i] = newAtomJoin(a, accessOf(a, colOf, bound), colOf, bound, r.db)
		}
		cur = compileStep(cur, cols, alts, r.prof)
		r.bind(c.leaves[s.Atom], s.EstOut, s.EstCost, cur)
		for _, a := range block { // the step binds its variables
			for _, t := range a.Args {
				if t.IsVar() {
					bound[colOf[t.Name]] = true
				}
			}
		}
	}
	if body := c.ir.Inputs[0]; body.Op == plan.OpJoin || body.Op == plan.OpSemiJoin {
		r.bind(body, c.steps[len(c.steps)-1].EstOut, plan.UnknownRows, cur)
	}
	op := compileProject(cur, c.ir.Head, colOf, r.db)
	r.bind(c.ir, c.est.Card, c.est.Cost, op)
	return op
}

// newAtomJoin compiles one atom against the current layout and bound
// mask. Constants are resolved once; a constant absent from the
// dictionary makes the atom dead (it can match nothing).
func newAtomJoin(a query.Atom, access StepAccess, colOf map[string]int, bound []bool, db *DB) *atomJoin {
	j := &atomJoin{db: db, pred: a.Pred, arity: a.Arity(), access: access}
	ref := func(t query.Term) termRef {
		if t.Const {
			id, ok := db.Dict.Lookup(t.Name)
			if !ok {
				j.dead = true
			}
			return termRef{isConst: true, constID: id}
		}
		c := colOf[t.Name]
		return termRef{col: c, bound: bound[c]}
	}
	j.s = ref(a.Args[0])
	if j.arity > 1 {
		j.o = ref(a.Args[1])
		j.sameVar = a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	}
	return j
}

// accessOf derives the physical access path of an atom from which of
// its arguments are bound — the same dispatch estimateStep performs.
func accessOf(a query.Atom, colOf map[string]int, bound []bool) StepAccess {
	isBound := func(t query.Term) bool { return t.Const || bound[colOf[t.Name]] }
	if a.Arity() == 1 {
		if isBound(a.Args[0]) {
			return AccessConceptProbe
		}
		return AccessConceptScan
	}
	sB, oB := isBound(a.Args[0]), isBound(a.Args[1])
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	switch {
	case sB && (oB || sameVar):
		return AccessRoleProbe
	case sB:
		return AccessRoleFwd
	case oB:
		return AccessRoleRev
	default:
		return AccessRoleScan
	}
}

// compileStep appends one plan step to the pipeline: the first wholly
// unbound atom becomes a source scan; fully bound atoms become
// filters; everything else an index-nested-loop join.
func compileStep(cur Operator, cols []string, alts []*atomJoin, prof *Profile) Operator {
	if cur == nil {
		if len(alts) == 1 && alts[0].unbound() {
			return newScan(cols, alts[0], alts[0].db, prof)
		}
		cur = newSingleton(cols)
	}
	if len(alts) == 1 && alts[0].fullyBound() {
		return newFilter(cur, alts[0], prof)
	}
	return newJoin(cur, alts, prof)
}

// compileProject closes a pipeline with head projection.
func compileProject(cur Operator, head []query.Term, colOf map[string]int, db *DB) Operator {
	srcCols := make([]int, len(head))
	consts := make([]int64, len(head))
	dead := false
	for i, h := range head {
		srcCols[i] = -1
		if h.Const {
			id, ok := db.Dict.Lookup(h.Name)
			if !ok {
				dead = true
			}
			consts[i] = id
			continue
		}
		if c, ok := colOf[h.Name]; ok {
			srcCols[i] = c
		} else {
			// Head variable never bound by any atom: no row qualifies.
			dead = true
		}
	}
	return newProject(cur, headSchema(head), srcCols, consts, dead)
}

// NewProjectNamed projects a pipeline whose schema already names its
// columns (a fragment join) onto the overall query head — exported for
// composing backends (internal/shard) that assemble their own fragment
// joins.
func NewProjectNamed(cur Operator, head []query.Term, db *DB) Operator {
	colOf := map[string]int{}
	for i, v := range cur.Schema() {
		if _, ok := colOf[v]; !ok {
			colOf[v] = i
		}
	}
	return compileProject(cur, head, colOf, db)
}

// CoverJoinOrder picks the fragment join order from the plan's
// estimated fragment cardinalities: the largest fragment drives the
// streaming probe pass, the others become build tables loaded
// smallest-first (cheapest hash tables early, so an empty build side
// short-circuits as soon as possible). Composing backends use it to
// fix one global join order across shards.
func CoverJoinOrder(ests []float64) (probe int, builds []int) {
	probe = 0
	for i, e := range ests {
		if e > ests[probe] {
			probe = i
		}
	}
	for i := range ests {
		if i != probe {
			builds = append(builds, i)
		}
	}
	sort.SliceStable(builds, func(a, b int) bool { return ests[builds[a]] < ests[builds[b]] })
	return probe, builds
}

// coverWorkerSplit divides one worker budget between the fragment
// pipelines and the cross-fragment build drain: multi-fragment plans
// spend the budget across fragments (the hash join drains build sides
// in parallel, each fragment pipeline getting an equal share for its
// internal parallel union), while a single-fragment plan hands the
// whole budget to the fragment's union.
func coverWorkerSplit(workers, frags int) int {
	if frags <= 1 {
		return workers
	}
	per := workers / frags
	if per < 1 {
		per = 1
	}
	return per
}
