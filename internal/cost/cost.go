// Package cost implements the paper's external cost estimation function
// ε (Section 6.1): textbook formulas over stored-table statistics
// (cardinalities, distinct values per attribute) under the uniform
// distribution and independent distributions assumptions, with joins
// assumed linear in their input sizes (hash joins with enough memory)
// and data access costed by comparing the applicable indexes.
//
// Unlike the engine profiles' estimators (which emulate each RDBMS's
// explain facility, shortcuts included), this model treats queries of
// all sizes uniformly — the property that makes GDL/ext beat GDL/RDBMS
// on the largest reformulations under Postgres (Section 6.3).
package cost

import (
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// Constants are the calibratable coefficients of the model.
type Constants struct {
	Scan   float64 // per tuple scanned sequentially
	Probe  float64 // per index probe
	Emit   float64 // per produced tuple
	Dedup  float64 // per tuple entering DISTINCT
	Mat    float64 // per tuple materialized (WITH)
	Join   float64 // per tuple flowing through a hash join
	Xfer   float64 // per tuple repartitioned through a shuffle exchange
	RDFMul float64 // access multiplier on the RDF layout
}

// DefaultConstants are reasonable pre-calibration values.
func DefaultConstants() Constants {
	// Materializing and joining intermediate tuples (temp-table write,
	// hash build/probe, final DISTINCT) is substantially more expensive
	// per row than an index probe — this is what makes semijoin
	// reducers (generalized covers) pay off, cf. Sections 5.2 and 6.3.
	// Moving a row through an exchange (copy into a staging batch, a
	// bounded-channel hop, copy out) costs more than a hash-join probe
	// but well under a materialization.
	return Constants{Scan: 1, Probe: 1.5, Emit: 0.5, Dedup: 1.2, Mat: 3, Join: 1.5, Xfer: 2, RDFMul: float64(engine.DefaultRDFSlots)}
}

// Estimate is a (cost, cardinality) pair in abstract cost units — the
// plan IR's estimate, so model figures feed plan-level callers as is.
type Estimate = plan.Estimate

// Model is the ε estimator bound to a database. Every estimate reads
// the database's current statistics, so the model follows ABox writes
// (the statistics are rebuilt after each mutation) without a rebuild.
type Model struct {
	DB *engine.DB
	C  Constants
}

// NewModel builds a model over the given database.
func NewModel(db *engine.DB) *Model {
	return &Model{DB: db, C: DefaultConstants()}
}

// ExchangeCost prices repartitioning rows through the shard backend's
// shuffle exchange: linear in rows moved, like the join term.
func (m *Model) ExchangeCost(rows float64) float64 {
	if rows < 0 {
		return 0
	}
	return rows * m.C.Xfer
}

func (m *Model) accessMul() float64 {
	if m.DB.Layout == engine.LayoutRDF {
		return m.C.RDFMul
	}
	return 1
}

// CQ estimates a conjunctive query: greedy smallest-relation-first join
// order, independence across predicates, uniformity within attributes.
func (m *Model) CQ(q query.CQ) Estimate { return m.cq(q, m.DB.Stats()) }

func (m *Model) cq(q query.CQ, st *engine.Statistics) Estimate {
	n := len(q.Atoms)
	used := make([]bool, n)
	bound := map[string]bool{}
	card, cost := 1.0, 0.0
	mul := m.accessMul()
	ent := maxf(float64(st.TotalEntities), 1)
	for picked := 0; picked < n; picked++ {
		best := -1
		var bOut, bCost float64
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			out, c := m.atomStep(st, q.Atoms[i], bound, card, ent, mul)
			if best < 0 || out < bOut {
				best, bOut, bCost = i, out, c
			}
		}
		used[best] = true
		for _, t := range q.Atoms[best].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
		card = bOut
		cost += bCost
	}
	return Estimate{Cost: cost, Card: card}
}

func (m *Model) atomStep(st *engine.Statistics, a query.Atom, bound map[string]bool, in, ent, mul float64) (out, cost float64) {
	isBound := func(t query.Term) bool { return t.Const || bound[t.Name] }
	if a.Arity() == 1 {
		cardA := float64(st.CardConcept(a.Pred))
		if isBound(a.Args[0]) {
			out = in * cardA / ent
			cost = in*m.C.Probe*mul + out*m.C.Emit
			return
		}
		out = in * cardA
		cost = in*cardA*m.C.Scan*mul + out*m.C.Emit
		return
	}
	cardR := float64(st.CardRole(a.Pred))
	dS := maxf(float64(st.RoleDistS[a.Pred]), 1)
	dO := maxf(float64(st.RoleDistO[a.Pred]), 1)
	sB, oB := isBound(a.Args[0]), isBound(a.Args[1])
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	switch {
	case sB && (oB || sameVar):
		sel := minf(cardR/(dS*dO), 1)
		out = in * sel
		cost = in*m.C.Probe*mul + out*m.C.Emit
	case sB:
		out = in * cardR / dS
		cost = in*m.C.Probe*mul + out*m.C.Emit
	case oB:
		out = in * cardR / dO
		cost = in*m.C.Probe*mul + out*m.C.Emit
	default:
		out = in * cardR
		if sameVar {
			out = in * cardR / maxf(dS, dO)
		}
		cost = in*cardR*m.C.Scan*mul + out*m.C.Emit
	}
	return
}

// UCQ estimates a union: the sum of the disjuncts plus DISTINCT. Every
// arm is estimated — no sampling, regardless of size.
func (m *Model) UCQ(u query.UCQ) Estimate {
	st := m.DB.Stats()
	var e Estimate
	for _, d := range u.Disjuncts {
		de := m.cq(d, st)
		e.Cost += de.Cost
		e.Card += de.Card
	}
	e.Cost += e.Card * m.C.Dedup
	return e
}

// JUCQ estimates the WITH-materialize-then-join shape: every fragment
// is materialized with DISTINCT, then hash-joined.
func (m *Model) JUCQ(j query.JUCQ) Estimate {
	frags := make([]Estimate, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = m.UCQ(sub)
	}
	return m.Cover(frags)
}

// Cover is the cover-join combine shared by JUCQ and JUSCQ (and by
// cover search, which scores candidates from per-fragment UCQ
// estimates): materialize every fragment, hash-join them linearly in
// their sizes, and emit at most the smallest fragment's rows.
func (m *Model) Cover(frags []Estimate) Estimate {
	cost := 0.0
	for _, fe := range frags {
		cost += fe.Cost + fe.Card*m.C.Mat
	}
	card := 1.0
	minCard := -1.0
	for _, fe := range frags {
		card *= maxf(fe.Card, 1)
		cost += fe.Card * m.C.Join
		if minCard < 0 || fe.Card < minCard {
			minCard = fe.Card
		}
	}
	if minCard >= 0 && minCard < card {
		card = minCard
	}
	cost += card * m.C.Emit
	return Estimate{Cost: cost, Card: card}
}

// SCQ estimates a factorized block query.
func (m *Model) SCQ(s query.SCQ) Estimate { return m.scq(s, m.DB.Stats()) }

func (m *Model) scq(s query.SCQ, st *engine.Statistics) Estimate {
	n := len(s.Blocks)
	used := make([]bool, n)
	bound := map[string]bool{}
	card, cost := 1.0, 0.0
	mul := m.accessMul()
	ent := maxf(float64(st.TotalEntities), 1)
	for picked := 0; picked < n; picked++ {
		best := -1
		var bOut, bCost float64
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			var out, c float64
			for _, a := range s.Blocks[i] {
				o, cc := m.atomStep(st, a, bound, card, ent, mul)
				out += o
				c += cc
			}
			if best < 0 || out < bOut {
				best, bOut, bCost = i, out, c
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
		card = bOut
		cost += bCost
	}
	return Estimate{Cost: cost, Card: card}
}

// USCQ estimates a union of SCQs.
func (m *Model) USCQ(u query.USCQ) Estimate {
	st := m.DB.Stats()
	var e Estimate
	for _, s := range u.Disjuncts {
		se := m.scq(s, st)
		e.Cost += se.Cost
		e.Card += se.Card
	}
	e.Cost += e.Card * m.C.Dedup
	return e
}

// JUSCQ estimates the USCQ fragment join.
func (m *Model) JUSCQ(j query.JUSCQ) Estimate {
	frags := make([]Estimate, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = m.USCQ(sub)
	}
	return m.Cover(frags)
}

// Calibrate fits the model's time scale against the engine by running a
// small probe workload and comparing measured wall time with estimated
// cost, as the paper calibrates its Java cost model per RDBMS
// (Section 6.1: "we calibrated the cost model for each of Postgres and
// DB2, by empirically determining the values of a few constant
// coefficients"). It returns the fitted cost-unit→seconds factor and
// scales nothing in place: the factor only matters when comparing
// against wall clocks, not for ranking covers.
func (m *Model) Calibrate(db *engine.DB, prof *engine.Profile, probes []query.CQ) float64 {
	if len(probes) == 0 {
		return 0
	}
	native := engine.NewBackend(db, prof)
	var estSum, secSum float64
	for _, q := range probes {
		est := m.CQ(q)
		start := time.Now()
		if exec, err := native.Compile(plan.FromUCQ(query.UCQ{Name: q.Name, Disjuncts: []query.CQ{q}})); err == nil {
			exec.Run(1)
		}
		secSum += time.Since(start).Seconds()
		estSum += est.Cost
	}
	if estSum == 0 {
		return 0
	}
	return secSum / estSum
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Estimate scores a logical plan tree by extracting it back into its
// dialect and applying the matching formula — the same ε figures the
// search obtains on JUCQs, now reachable from any plan.Node. A
// malformed tree costs +Inf (search treats it as "never pick this").
func (m *Model) Estimate(n *plan.Node) plan.Estimate {
	lo, err := plan.Extract(n)
	if err != nil {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	switch lo.Kind {
	case plan.KindUCQ:
		return m.UCQ(lo.UCQ)
	case plan.KindUSCQ:
		return m.USCQ(lo.USCQ)
	case plan.KindJUCQ:
		return m.JUCQ(lo.JUCQ)
	default:
		return m.JUSCQ(lo.JUSCQ)
	}
}
