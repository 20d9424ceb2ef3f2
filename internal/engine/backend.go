package engine

// The native implementation of plan.Backend. Compile validates the
// logical plan and walks it once, node by node: a Project over a body
// of accesses becomes one arm pipeline ordered by the greedy
// PlanCQ/PlanSCQ, a Union the (parallel) union of its arms, a Distinct
// the streaming distinct, a Project over a cover join the streaming
// hash join of its fragments, and an Exchange the identity. The same
// walk freezes each node's estimate — the profile's explain-style
// figures PlanUCQ/PlanUSCQ and CoverEstimate compute — so the cost the
// search assigns a plan is exactly what Compile reports. Operator
// trees are single-use: each Run builds a fresh one from the compiled
// nodes, drains it, and fills EXPLAIN by node identity from the
// operators it recorded against the IR.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/plan"
	"repro/internal/query"
)

// Backend runs logical plans on the in-process streaming engine.
type Backend struct {
	DB      *DB
	Profile *Profile
}

// NewBackend wires the native backend over a database and profile.
func NewBackend(db *DB, prof *Profile) *Backend { return &Backend{DB: db, Profile: prof} }

// Name identifies the backend in cache keys and EXPLAIN output.
func (b *Backend) Name() string { return "native" }

// Compiled is a plan compiled for the native engine. It implements
// plan.Executable; composing backends (internal/shard) reach the
// per-run operator tree through Tree instead of the opaque Run.
type Compiled struct {
	b     *Backend
	root  *node
	nbind int // operators one run records against IR nodes
}

// node is one compiled plan node: the IR node it implements and the
// estimate frozen for it at compile time.
type node struct {
	ir   *plan.Node
	est  plan.Estimate
	kids []*node

	// Arm projection: the body's Access leaves in Pos order and the
	// planned pipeline steps, Atom indexing leaves.
	leaves []*plan.Node
	steps  []PlanStep

	// Cover projection (kids are the fragments): the hash join order.
	probe  int
	builds []int
}

// compiler carries one Compile walk.
type compiler struct {
	b     *Backend
	nbind int
}

// CompilePlan validates the tree and compiles it, returning the
// concrete *Compiled whose Tree method hands composing backends
// (internal/shard) a fresh operator pipeline per run. Validation runs
// here — not only in core — so plans handed to the backend directly
// are checked too; Estimate maps the error to a +Inf cost.
func (b *Backend) CompilePlan(n *plan.Node) (*Compiled, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	cp := &compiler{b: b}
	root, err := cp.compile(n, false)
	if err != nil {
		return nil, err
	}
	return &Compiled{b: b, root: root, nbind: cp.nbind}, nil
}

// compile maps one IR node; scq forces the factorized (SCQ) planner on
// the arms below, as for every arm of a union with a factorized one.
func (cp *compiler) compile(n *plan.Node, scq bool) (*node, error) {
	prof := cp.b.Profile
	c := &node{ir: n}
	switch n.Op {
	case plan.OpDistinct, plan.OpExchange:
		k, err := cp.compile(n.Inputs[0], scq)
		if err != nil {
			return nil, err
		}
		c.kids, c.est = []*node{k}, k.est
		if n.Op == plan.OpExchange {
			return c, nil
		}
		// The cover combine already prices the final dedup.
		if !isCover(k) {
			c.est.Cost += c.est.Card * prof.CDedup
		}
	case plan.OpUnion:
		for _, arm := range n.Inputs {
			if arm.Op == plan.OpDistinct {
				arm = arm.Inputs[0]
			}
			scq = scq || arm.Factorized
		}
		sample, sampled := len(n.Inputs), false
		if !scq {
			sample, sampled = prof.armSample(len(n.Inputs))
		}
		c.kids = make([]*node, len(n.Inputs))
		for i, arm := range n.Inputs {
			k, err := cp.compile(arm, scq)
			if err != nil {
				return nil, err
			}
			c.kids[i] = k
			if i < sample {
				// A per-arm Distinct (the push-Distinct rewrite) changes
				// no union estimate: sum the arm projections.
				if k.ir.Op == plan.OpDistinct {
					k = k.kids[0]
				}
				c.est.Cost += k.est.Cost
				c.est.Card += k.est.Card
			}
		}
		if sampled {
			scale := float64(len(n.Inputs)) / float64(sample)
			c.est.Cost *= scale
			c.est.Card *= scale
		}
	case plan.OpProject:
		frags := plan.CoverFragments(n)
		if frags == nil {
			return cp.compileArm(n, scq || n.Factorized)
		}
		c.kids = make([]*node, len(frags))
		ests := make([]plan.Estimate, len(frags))
		cards := make([]float64, len(frags))
		for i, f := range frags {
			k, err := cp.compile(f, false)
			if err != nil {
				return nil, err
			}
			c.kids[i], ests[i], cards[i] = k, k.est, k.est.Card
		}
		c.est = prof.CoverEstimate(ests)
		c.probe, c.builds = CoverJoinOrder(cards)
		cp.nbind++ // the join below the projection
	default:
		return nil, fmt.Errorf("engine: %s outside an arm body", n.Op)
	}
	cp.nbind++
	return c, nil
}

// compileArm plans one arm projection over its Access leaves in Pos
// order: PlanSCQ over blocks when factorized, PlanCQ over atoms
// otherwise.
func (cp *compiler) compileArm(p *plan.Node, factorized bool) (*node, error) {
	leaves, err := armLeaves(p.Inputs[0], nil)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(leaves, func(a, b int) bool { return leaves[a].Pos < leaves[b].Pos })
	c := &node{ir: p, leaves: leaves}
	db, prof := cp.b.DB, cp.b.Profile
	if factorized {
		s := query.SCQ{Name: p.Name, Head: p.Head, Blocks: make([][]query.Atom, len(leaves))}
		for i, l := range leaves {
			s.Blocks[i] = l.Atoms
		}
		sp := PlanSCQ(s, db, prof)
		c.steps = make([]PlanStep, len(sp.Order))
		for i, bi := range sp.Order {
			c.steps[i] = PlanStep{Atom: bi, EstOut: plan.UnknownRows, EstCost: plan.UnknownRows}
		}
		c.est = plan.Estimate{Cost: sp.EstCost, Card: sp.EstCard}
	} else {
		q := query.CQ{Name: p.Name, Head: p.Head, Atoms: make([]query.Atom, len(leaves))}
		for i, l := range leaves {
			if len(l.Atoms) != 1 {
				return nil, fmt.Errorf("engine: non-factorized arm has a %d-atom access block", len(l.Atoms))
			}
			q.Atoms[i] = l.Atoms[0]
		}
		qp := PlanCQ(q, db, prof)
		c.steps = qp.Steps
		c.est = plan.Estimate{Cost: qp.EstCost, Card: qp.EstCard}
	}
	cp.nbind += len(c.steps) + 2 // steps, projection, body join
	return c, nil
}

// armLeaves collects the Access leaves of an arm body, which may only
// join, semijoin and exchange them.
func armLeaves(n *plan.Node, out []*plan.Node) ([]*plan.Node, error) {
	switch n.Op {
	case plan.OpAccess:
		return append(out, n), nil
	case plan.OpJoin, plan.OpSemiJoin, plan.OpExchange:
		var err error
		for _, in := range n.Inputs {
			if out, err = armLeaves(in, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("engine: %s inside an arm body", n.Op)
}

// isCover reports whether c is a cover projection.
func isCover(c *node) bool { return c.ir.Op == plan.OpProject && len(c.kids) > 0 }

// Compile lowers the plan into a reusable executable.
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) { return b.CompilePlan(n) }

// NewDistinctOperator wraps any operator in the streaming distinct —
// the merge step of backends that union independently produced
// streams (shard fan-in).
func NewDistinctOperator(in Operator) Operator { return newDistinct(in) }

// Estimate scores the plan; malformed trees cost +Inf.
func (b *Backend) Estimate(n *plan.Node) plan.Estimate {
	c, err := b.CompilePlan(n)
	if err != nil {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	return c.root.est
}

// Estimate returns the compile-time estimate.
func (c *Compiled) Estimate() plan.Estimate { return c.root.est }

// Tree builds a fresh streaming operator pipeline for one run,
// returning it with an annotation callback that — once the tree has
// been drained — writes each recorded operator's actual row counter,
// with the estimate frozen for its IR node, into an EXPLAIN skeleton
// of the plan. Operator trees are single-use; call Tree again for
// another run.
func (c *Compiled) Tree(workers int) (Operator, func(at map[*plan.Node]*plan.ExplainNode)) {
	r := &run{db: c.b.DB, prof: c.b.Profile, binds: make([]binding, 0, c.nbind)}
	return r.build(c.root, workers), r.annotate
}

// Run builds a fresh operator tree, drains it, and annotates the
// EXPLAIN skeleton with the compile-time estimates and the actual row
// counters the operators observed.
func (c *Compiled) Run(workers int) (*plan.RunResult, error) {
	root, at := plan.Skeleton(c.root.ir)
	est := c.root.est
	ex := &plan.Explain{Backend: c.b.Name(), EstCost: est.Cost, EstCard: est.Card, Root: root}
	op, annotate := c.Tree(workers)
	rel := Drain(op)
	annotate(at)
	return &plan.RunResult{Tuples: rel.Decode(c.b.DB.Dict), Explain: ex}, nil
}
