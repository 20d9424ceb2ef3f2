package engine

import (
	"repro/internal/plan"
	"repro/internal/query"
)

// SCQPlan orders the blocks of a semi-conjunctive query. Each step
// unions the alternative atoms of one block — the factorized evaluation
// that makes USCQs cheaper than expanded UCQs [33].
type SCQPlan struct {
	S       query.SCQ
	Order   []int
	EstCard float64
	EstCost float64
}

// PlanSCQ greedily orders blocks by estimated output cardinality, with
// a block's estimate being the sum over its alternative atoms.
func PlanSCQ(s query.SCQ, db *DB, prof *Profile) SCQPlan {
	st := db.Stats()
	n := len(s.Blocks)
	used := make([]bool, n)
	bound := map[string]bool{}
	plan := SCQPlan{S: s}
	card, cost := 1.0, 0.0
	for picked := 0; picked < n; picked++ {
		best := -1
		var bestOut, bestCost float64
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			var outSum, costSum float64
			for _, a := range s.Blocks[i] {
				step := estimateStep(a, bound, card, st, prof, db.Layout)
				outSum += step.EstOut
				costSum += step.EstCost
			}
			if best < 0 || outSum < bestOut {
				best, bestOut, bestCost = i, outSum, costSum
			}
		}
		used[best] = true
		for _, a := range s.Blocks[best] {
			for _, t := range a.Args {
				if t.IsVar() {
					bound[t.Name] = true
				}
			}
		}
		plan.Order = append(plan.Order, best)
		card = bestOut
		cost += bestCost
	}
	plan.EstCard = card
	plan.EstCost = cost
	return plan
}

// ExecSCQ evaluates a planned SCQ through the streaming pipeline: each
// block compiles to one join whose alternatives union per input row
// (duplicates preserved; callers apply Distinct).
func ExecSCQ(plan SCQPlan, db *DB) *Relation {
	return Drain(CompileSCQ(plan, db, nil))
}

// USCQPlan is a union of SCQ plans with DISTINCT.
type USCQPlan struct {
	U       query.USCQ
	Plans   []SCQPlan
	EstCard float64
	EstCost float64
}

// PlanUSCQ plans every SCQ disjunct.
func PlanUSCQ(u query.USCQ, db *DB, prof *Profile) USCQPlan {
	up := USCQPlan{U: u}
	for _, s := range u.Disjuncts {
		p := PlanSCQ(s, db, prof)
		up.Plans = append(up.Plans, p)
		up.EstCard += p.EstCard
		up.EstCost += p.EstCost
	}
	up.EstCost += up.EstCard * prof.CDedup
	return up
}

// ExecUSCQ evaluates a planned USCQ with DISTINCT through the
// streaming pipeline.
func ExecUSCQ(plan USCQPlan, db *DB) *Relation {
	if len(plan.Plans) == 0 {
		return &Relation{}
	}
	return Drain(CompileUSCQ(plan, db, nil, 1))
}

// JUSCQPlan materializes USCQ fragments and joins them.
type JUSCQPlan struct {
	J       query.JUSCQ
	Frags   []USCQPlan
	EstCard float64
	EstCost float64
}

// PlanJUSCQ mirrors PlanJUCQ for the USCQ dialect.
func PlanJUSCQ(j query.JUSCQ, db *DB, prof *Profile) JUSCQPlan {
	jp := JUSCQPlan{J: j, Frags: make([]USCQPlan, len(j.Subs))}
	ests := make([]plan.Estimate, len(j.Subs))
	for i, sub := range j.Subs {
		jp.Frags[i] = PlanUSCQ(sub, db, prof)
		ests[i] = plan.Estimate{Cost: jp.Frags[i].EstCost, Card: jp.Frags[i].EstCard}
	}
	e := prof.CoverEstimate(ests)
	jp.EstCard, jp.EstCost = e.Card, e.Cost
	return jp
}

// ExecJUSCQ evaluates a planned JUSCQ through the streaming cover
// pipeline: factorized fragment pipelines feed the streaming hash join
// — no fragment Relation is materialized.
func ExecJUSCQ(plan JUSCQPlan, db *DB) *Relation {
	return Drain(CompileJUSCQ(plan, db, nil, 1))
}

// ExecJUSCQMaterialized is the pre-streaming cover path, kept as the
// differential-testing oracle and benchmark baseline: materialize each
// USCQ fragment, join smallest-first (plan estimates breaking ties),
// project the head with DISTINCT.
func ExecJUSCQMaterialized(plan JUSCQPlan, db *DB) *Relation {
	frags := make([]*Relation, len(plan.Frags))
	ests := make([]float64, len(plan.Frags))
	for i := range plan.Frags {
		frags[i] = ExecUSCQ(plan.Frags[i], db)
		ests[i] = plan.Frags[i].EstCard
	}
	return JoinAndProjectEst(frags, ests, plan.J.Head, db)
}

// EvaluateUSCQ plans and runs a USCQ; observed cardinalities flow into
// prof.Feedback when enabled.
func EvaluateUSCQ(u query.USCQ, db *DB, prof *Profile) Answer {
	return EvaluateUSCQParallel(u, db, prof, 1)
}

// EvaluateUSCQParallel plans and runs a USCQ with its union arms
// spread over worker goroutines through the parallel union operator
// (workers <= 1 keeps the sequential pipeline).
func EvaluateUSCQParallel(u query.USCQ, db *DB, prof *Profile, workers int) Answer {
	p := PlanUSCQ(u, db, prof)
	r := &Relation{}
	if len(p.Plans) > 0 {
		r = Drain(CompileUSCQ(p, db, prof, workers))
	}
	return Answer{Tuples: r.Decode(db.Dict), EstCost: p.EstCost}
}

// EvaluateJUSCQ plans and runs a JUSCQ.
func EvaluateJUSCQ(j query.JUSCQ, db *DB, prof *Profile) Answer {
	return EvaluateJUSCQParallel(j, db, prof, 1)
}

// EvaluateJUSCQParallel plans and runs a JUSCQ through the streaming
// cover pipeline: factorized fragment pipelines feed the streaming
// hash join, with the worker budget split between the join's parallel
// build drain and the fragments' parallel unions (workers <= 1 keeps
// the fully sequential pipeline).
func EvaluateJUSCQParallel(j query.JUSCQ, db *DB, prof *Profile, workers int) Answer {
	p := PlanJUSCQ(j, db, prof)
	return ExecJUSCQPlanned(p, db, prof, workers)
}

// ExecJUSCQPlanned runs an already planned JUSCQ through the streaming
// cover pipeline and decodes the result — the execution half of
// EvaluateJUSCQParallel, reusable when the plan is cached.
func ExecJUSCQPlanned(p JUSCQPlan, db *DB, prof *Profile, workers int) Answer {
	r := Drain(CompileJUSCQ(p, db, prof, workers))
	return Answer{Tuples: r.Decode(db.Dict), EstCost: p.EstCost}
}

// ExecUSCQPlanned runs an already planned USCQ through the streaming
// pipeline and decodes the result (the single-fragment cover fast
// path, reusable when the plan is cached).
func ExecUSCQPlanned(p USCQPlan, db *DB, prof *Profile, workers int) Answer {
	r := &Relation{}
	if len(p.Plans) > 0 {
		r = Drain(CompileUSCQ(p, db, prof, workers))
	}
	return Answer{Tuples: r.Decode(db.Dict), EstCost: p.EstCost}
}
