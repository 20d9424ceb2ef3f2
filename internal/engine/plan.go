package engine

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/query"
)

// StepAccess identifies the physical access path of a plan step.
type StepAccess int

const (
	// AccessConceptScan reads a whole concept table.
	AccessConceptScan StepAccess = iota
	// AccessConceptProbe checks membership of a bound term.
	AccessConceptProbe
	// AccessRoleScan reads a whole role table.
	AccessRoleScan
	// AccessRoleFwd expands a bound subject through the forward index.
	AccessRoleFwd
	// AccessRoleRev expands a bound object through the reverse index.
	AccessRoleRev
	// AccessRoleProbe checks a fully bound pair.
	AccessRoleProbe
)

func (a StepAccess) String() string {
	switch a {
	case AccessConceptScan:
		return "concept-scan"
	case AccessConceptProbe:
		return "concept-probe"
	case AccessRoleScan:
		return "role-scan"
	case AccessRoleFwd:
		return "index-fwd"
	case AccessRoleRev:
		return "index-rev"
	default:
		return "pair-probe"
	}
}

// PlanStep is one pipelined step of a CQ plan: join the rows produced
// so far with one atom, through a chosen access path.
type PlanStep struct {
	Atom    int
	Access  StepAccess
	EstOut  float64
	EstCost float64
}

// CQPlan is a left-deep pipelined plan for one conjunctive query.
type CQPlan struct {
	Q       query.CQ
	Steps   []PlanStep
	EstCard float64
	EstCost float64
}

// String renders the plan EXPLAIN-style.
func (p CQPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CQ %s (est cost %.1f, est rows %.1f)\n", p.Q.Name, p.EstCost, p.EstCard)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "  %-14s %-40s rows≈%-10.1f cost≈%.1f\n",
			s.Access, p.Q.Atoms[s.Atom].String(), s.EstOut, s.EstCost)
	}
	return b.String()
}

// PlanCQ builds a plan for q with a greedy join-order heuristic:
// repeatedly pick the remaining atom with the smallest estimated output
// cardinality given the variables bound so far (index access preferred
// automatically, since bound-variable expansions estimate far below
// cross products).
func PlanCQ(q query.CQ, db *DB, prof *Profile) CQPlan {
	st := db.Stats()
	n := len(q.Atoms)
	used := make([]bool, n)
	bound := map[string]bool{}
	plan := CQPlan{Q: q}
	card := 1.0
	cost := 0.0
	for picked := 0; picked < n; picked++ {
		bestIdx := -1
		var best PlanStep
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			step := estimateStep(q.Atoms[i], bound, card, st, prof, db.Layout)
			step.Atom = i
			if bestIdx < 0 || step.EstOut < best.EstOut ||
				(step.EstOut == best.EstOut && step.EstCost < best.EstCost) {
				bestIdx = i
				best = step
			}
		}
		used[bestIdx] = true
		for _, t := range q.Atoms[bestIdx].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
		plan.Steps = append(plan.Steps, best)
		card = best.EstOut
		cost += best.EstCost
	}
	plan.EstCard = card
	plan.EstCost = cost
	return plan
}

// estimateStep estimates joining the current intermediate result (est.
// cardinality in) with one atom, choosing the access path from which
// arguments are bound. When the profile carries execution feedback
// (Profile.Feedback), the statistics-derived fanout is replaced by the
// observed per-operator ratio from earlier executions.
func estimateStep(a query.Atom, bound map[string]bool, in float64, st *Statistics, prof *Profile, layout Layout) PlanStep {
	step := estimateStepStatic(a, bound, in, st, prof, layout)
	if prof.Feedback != nil {
		if ratio, ok := prof.Feedback.Fanout(a.Pred, step.Access); ok {
			out := in * ratio
			// Rescale the emit-proportional share of the cost.
			step.EstCost += (out - step.EstOut) * prof.CEmit
			if step.EstCost < 0 {
				step.EstCost = 0
			}
			step.EstOut = out
		}
	}
	return step
}

// estimateStepStatic is the purely statistics-driven estimate.
func estimateStepStatic(a query.Atom, bound map[string]bool, in float64, st *Statistics, prof *Profile, layout Layout) PlanStep {
	isBound := func(t query.Term) bool { return t.Const || bound[t.Name] }
	layoutF := 1.0
	if layout == LayoutRDF {
		layoutF = prof.RDFSlotFactor
	}
	ent := float64(st.TotalEntities)
	if ent < 1 {
		ent = 1
	}
	var step PlanStep
	if a.Arity() == 1 {
		cardA := float64(st.CardConcept(a.Pred))
		if isBound(a.Args[0]) {
			step.Access = AccessConceptProbe
			sel := cardA / ent
			step.EstOut = in * sel
			step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
		} else {
			step.Access = AccessConceptScan
			step.EstOut = in * cardA
			step.EstCost = in*cardA*prof.CScanTuple*layoutF + step.EstOut*prof.CEmit
		}
		return step
	}
	cardR := float64(st.CardRole(a.Pred))
	dS := float64(st.RoleDistS[a.Pred])
	dO := float64(st.RoleDistO[a.Pred])
	if dS < 1 {
		dS = 1
	}
	if dO < 1 {
		dO = 1
	}
	sBound, oBound := isBound(a.Args[0]), isBound(a.Args[1])
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	switch {
	case sBound && (oBound || sameVar):
		step.Access = AccessRoleProbe
		sel := cardR / (dS * dO)
		if sel > 1 {
			sel = 1
		}
		step.EstOut = in * sel
		step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
	case sBound:
		step.Access = AccessRoleFwd
		fan := cardR / dS
		step.EstOut = in * fan
		step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
	case oBound:
		step.Access = AccessRoleRev
		fan := cardR / dO
		step.EstOut = in * fan
		step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
	default:
		step.Access = AccessRoleScan
		out := in * cardR
		if sameVar {
			// diagonal: R(x,x) keeps ~card/max(dS,dO) tuples
			d := dS
			if dO > d {
				d = dO
			}
			out = in * cardR / d
		}
		step.EstOut = out
		step.EstCost = in*cardR*prof.CScanTuple*layoutF + step.EstOut*prof.CEmit
	}
	return step
}

// UCQPlan is a union of CQ plans followed by DISTINCT.
type UCQPlan struct {
	U       query.UCQ
	Plans   []CQPlan
	EstCard float64
	EstCost float64
	// Sampled reports whether the profile estimated this union from a
	// sample of its arms (the Postgres shortcut).
	Sampled bool
}

// PlanUCQ plans every disjunct and aggregates cost. When the profile
// samples (#arms > SampleThreshold), only SampleSize arms are planned
// for ESTIMATION and the rest are extrapolated — exactly the behaviour
// that misleads GDL/RDBMS on Q9–Q11 in the paper. Every arm is still
// planned, and execution runs them all.
func PlanUCQ(u query.UCQ, db *DB, prof *Profile) UCQPlan {
	up := UCQPlan{U: u, Plans: make([]CQPlan, len(u.Disjuncts))}
	for i, d := range u.Disjuncts {
		up.Plans[i] = PlanCQ(d, db, prof)
	}
	_, up.Sampled = prof.armSample(len(u.Disjuncts))
	e := prof.ucqEstimate(len(u.Disjuncts), func(i int) CQPlan { return up.Plans[i] })
	up.EstCard, up.EstCost = e.Card, e.Cost
	return up
}

// EstimateUCQ is PlanUCQ's estimate alone: it plans only the arms the
// profile's estimation sample reads — what cover search needs of a
// fragment.
func EstimateUCQ(u query.UCQ, db *DB, prof *Profile) plan.Estimate {
	return prof.ucqEstimate(len(u.Disjuncts), func(i int) CQPlan { return PlanCQ(u.Disjuncts[i], db, prof) })
}

// ucqEstimate aggregates a union of n arms planned by arm: the sampled
// arms' figures, extrapolated when the profile samples, plus the
// DISTINCT over the union's (upper-bound) cardinality.
func (p *Profile) ucqEstimate(n int, arm func(i int) CQPlan) plan.Estimate {
	sample, sampled := p.armSample(n)
	var costSum, cardSum float64
	for i := 0; i < n && i < sample; i++ {
		a := arm(i)
		costSum += a.EstCost
		cardSum += a.EstCard
	}
	if sampled {
		scale := float64(n) / float64(sample)
		costSum *= scale
		cardSum *= scale
	}
	return plan.Estimate{Cost: costSum + cardSum*p.CDedup, Card: cardSum}
}

// armSample returns how many of a UCQ's n arms the profile plans for
// estimation, and whether that is a sample to extrapolate from.
func (p *Profile) armSample(n int) (int, bool) {
	if p.SampleThreshold > 0 && n > p.SampleThreshold {
		return p.SampleSize, true
	}
	return n, false
}

// JUCQPlan materializes each fragment UCQ, then joins them.
type JUCQPlan struct {
	J       query.JUCQ
	Frags   []UCQPlan
	EstCard float64
	EstCost float64
}

// PlanJUCQ plans the paper's WITH-based evaluation shape (Section 3):
// every fragment reformulation is materialized with DISTINCT; joining
// the materialized results is left to hash joins ordered by size.
func PlanJUCQ(j query.JUCQ, db *DB, prof *Profile) JUCQPlan {
	jp := JUCQPlan{J: j, Frags: make([]UCQPlan, len(j.Subs))}
	ests := make([]plan.Estimate, len(j.Subs))
	for i, sub := range j.Subs {
		jp.Frags[i] = PlanUCQ(sub, db, prof)
		ests[i] = plan.Estimate{Cost: jp.Frags[i].EstCost, Card: jp.Frags[i].EstCard}
	}
	e := prof.CoverEstimate(ests)
	jp.EstCard, jp.EstCost = e.Card, e.Cost
	return jp
}

// CoverEstimate is the cover-join combine shared by PlanJUCQ and
// PlanJUSCQ (and by cover search, which scores candidates from
// per-fragment PlanUCQ figures): materialize every fragment, join the
// results linearly in their sizes (hash joins, pairwise smallest
// first), and estimate the output under the independence assumption,
// capped by the smallest input (crude containment).
func (p *Profile) CoverEstimate(frags []plan.Estimate) plan.Estimate {
	cost := 0.0
	for _, f := range frags {
		cost += f.Cost + f.Card*p.CMat
	}
	card := 1.0
	for _, f := range frags {
		card *= maxf(f.Card, 1)
	}
	for _, f := range frags {
		if f.Card > 0 && f.Card < card {
			card = f.Card
		}
		cost += f.Card * p.CProbe
	}
	cost += card * p.CEmit
	return plan.Estimate{Cost: cost, Card: card}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// String renders the JUCQ plan EXPLAIN-style.
func (p JUCQPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "JUCQ %s (est cost %.1f, est rows %.1f)\n", p.J.Name, p.EstCost, p.EstCard)
	for i, f := range p.Frags {
		fmt.Fprintf(&b, " WITH f%d AS union of %d CQs (est cost %.1f, est rows %.1f, sampled=%v)\n",
			i+1, len(f.Plans), f.EstCost, f.EstCard, f.Sampled)
	}
	return b.String()
}

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
