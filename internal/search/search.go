// Package search implements the cost-based cover search algorithms of
// Section 5.3: EDL (exhaustive over Lq and Gq) and GDL (greedy,
// Algorithm 1), including the time-limited GDL variant of Section 6.4.
// Both are parameterized by a cost estimator — either the engine
// profiles' explain-style estimation ("RDBMS") or the external model of
// package cost ("ext").
//
// Candidate covers differ from each other by one fragment, so each
// search keeps a fragment table keyed by the literal fragment query
// (reformulate.Key): the fragment's reformulated UCQ and, computed once
// per search, what scoring needs of it. The ext and RDBMS estimators
// are FragmentEstimators: their cost of a lowered cover plan is a sum
// and product of per-fragment UCQ figures (cost.Model.Cover,
// engine.Profile.CoverEstimate), and Extract(Rewrite(FromJUCQ(j)))
// returns j's fragments unchanged, so combining cached fragment
// estimates gives the whole-tree figure bit for bit, with no tree
// built, rewritten, validated or extracted per candidate. The one
// validation rule that spans fragments (plan.CheckCoverJoin) is checked
// on cached per-fragment variable sets. Other estimators
// (BackendEstimator over the sql or shard backend) still score whole
// trees, assembled from fragment subtrees lowered once per search. The
// executed plan is validated where it compiles (core and every
// backend's Compile).
package search

import (
	"math"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// Estimator scores a candidate logical plan. The search lowers every
// cover's JUCQ reformulation into the plan IR and asks the estimator
// to cost that tree — the very tree the execution backend compiles —
// so the cost GDL assigns to the winning cover is the backend's
// estimate of the plan that runs.
type Estimator interface {
	Name() string
	Estimate(n *plan.Node) float64
}

// FragmentEstimator is an Estimator whose cost of a cover plan is a
// function of per-fragment figures. The search estimates each distinct
// fragment once and scores a candidate cover by combining its
// fragments' figures; the result must equal Estimate on the cover's
// lowered, rewritten plan exactly.
type FragmentEstimator interface {
	Estimator
	// EstimateFragment scores one fragment's reformulated UCQ.
	EstimateFragment(u query.UCQ) plan.Estimate
	// EstimateCover scores the cover join of two or more fragments.
	// valid reports whether the cover's plan passes the fragment-join
	// key rule (plan.CheckCoverJoin): an estimator that validates the
	// trees it scores must price an invalid cover as it would the tree.
	EstimateCover(frags []plan.Estimate, valid bool) float64
}

// fragment is one fragment-table entry: the fragment query's
// reformulation and what scoring needs of it — for a FragmentEstimator
// its estimate and the variables its plan subtree outputs (head) and
// mentions (vars), for any other estimator the rewritten subtree.
type fragment struct {
	ucq        query.UCQ
	est        plan.Estimate
	head, vars map[string]bool
	tree       *plan.Node
}

// estimateFragment builds a FragmentEstimator's entry for a fragment.
func estimateFragment(e FragmentEstimator, u query.UCQ) *fragment {
	f := &fragment{ucq: u, est: e.EstimateFragment(u), head: map[string]bool{}, vars: map[string]bool{}}
	for i, d := range u.Disjuncts {
		for _, t := range d.Head {
			if t.IsVar() {
				f.vars[t.Name] = true
				if i == 0 {
					f.head[t.Name] = true
				}
			}
		}
		for _, a := range d.Atoms {
			for _, t := range a.Args {
				if t.IsVar() {
					f.vars[t.Name] = true
				}
			}
		}
	}
	return f
}

// coverCost scores a cover from its fragments the way the lowered plan
// is scored: a single fragment is the whole plan (plan.CoverJoin
// collapses it), more pay the cover join.
func coverCost(e FragmentEstimator, frags []*fragment) float64 {
	if len(frags) == 1 {
		return frags[0].est.Cost
	}
	ests := make([]plan.Estimate, len(frags))
	heads := make([]map[string]bool, len(frags))
	vars := make([]map[string]bool, len(frags))
	for i, f := range frags {
		ests[i], heads[i], vars[i] = f.est, f.head, f.vars
	}
	return e.EstimateCover(ests, plan.CheckCoverJoin(heads, vars) == nil)
}

// estimateJUCQ scores a JUCQ from its fragments, as the search does.
func estimateJUCQ(e FragmentEstimator, j query.JUCQ) float64 {
	frags := make([]*fragment, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = estimateFragment(e, sub)
	}
	return coverCost(e, frags)
}

// RDBMSEstimator uses the engine's per-profile plan costing — the
// paper's "explain through JDBC" option. It scores plans exactly as
// the native execution backend does.
type RDBMSEstimator struct {
	DB      *engine.DB
	Profile *engine.Profile
}

// Name identifies the estimator in reports.
func (e *RDBMSEstimator) Name() string { return "RDBMS(" + e.Profile.Name + ")" }

// Estimate plans the tree under the profile and returns its cost.
func (e *RDBMSEstimator) Estimate(n *plan.Node) float64 {
	return engine.NewBackend(e.DB, e.Profile).Estimate(n).Cost
}

// EstimateFragment plans the fragment's UCQ under the profile.
func (e *RDBMSEstimator) EstimateFragment(u query.UCQ) plan.Estimate {
	p := engine.PlanUCQ(u, e.DB, e.Profile)
	return plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
}

// EstimateCover applies the profile's cover-join combine. Like the
// native backend's Estimate, it prices a plan that fails validation at
// +Inf.
func (e *RDBMSEstimator) EstimateCover(frags []plan.Estimate, valid bool) float64 {
	if !valid {
		return math.Inf(1)
	}
	return e.Profile.CoverEstimate(frags).Cost
}

// EstimateJUCQ scores a JUCQ without building a plan tree (for callers
// that hold a JUCQ rather than a plan).
func (e *RDBMSEstimator) EstimateJUCQ(j query.JUCQ) float64 { return estimateJUCQ(e, j) }

// BackendEstimator scores plans through an execution backend's own
// Estimate — GDL over the sql or shard backend then optimizes the
// plan as that backend will run it (a sharded Estimate sums per-shard
// figures, so covers that align with the partitioning win).
type BackendEstimator struct {
	Backend plan.Backend
}

// Name identifies the estimator in reports and memo keys.
func (e *BackendEstimator) Name() string { return "backend(" + e.Backend.Name() + ")" }

// Estimate delegates to the backend.
func (e *BackendEstimator) Estimate(n *plan.Node) float64 {
	return e.Backend.Estimate(n).Cost
}

// ExtEstimator uses the external cost model (package cost).
type ExtEstimator struct {
	Model *cost.Model
}

// Name identifies the estimator in reports.
func (e *ExtEstimator) Name() string { return "ext" }

// Estimate applies the textbook formulas to the plan tree.
func (e *ExtEstimator) Estimate(n *plan.Node) float64 {
	return e.Model.Estimate(n).Cost
}

// EstimateFragment applies the UCQ formula to the fragment.
func (e *ExtEstimator) EstimateFragment(u query.UCQ) plan.Estimate { return e.Model.UCQ(u) }

// EstimateCover applies the model's cover-join combine. The model
// scores any extractable tree, so validity does not enter.
func (e *ExtEstimator) EstimateCover(frags []plan.Estimate, _ bool) float64 {
	return e.Model.Cover(frags).Cost
}

// EstimateJUCQ scores a JUCQ without building a plan tree (for callers
// that hold a JUCQ rather than a plan).
func (e *ExtEstimator) EstimateJUCQ(j query.JUCQ) float64 { return estimateJUCQ(e, j) }

// Result is the outcome of a cover search.
type Result struct {
	Cover   cover.Cover
	JUCQ    query.JUCQ
	Cost    float64
	Err     error
	Elapsed time.Duration

	// ExploredLq / ExploredGq count the distinct covers whose cost was
	// estimated, split into simple (∈ Lq) and generalized — the
	// quantities reported in Table 6.
	ExploredLq int
	ExploredGq int
	// Moves is the number of greedy moves applied (GDL only).
	Moves int
}

// Options tune the search.
type Options struct {
	// TimeLimit stops GDL after the given duration (0 = none): the
	// time-limited GDL of Section 6.4.
	TimeLimit time.Duration
	// MaxCovers caps EDL enumeration (the paper stops A6 at 20003
	// generalized covers). 0 = unlimited.
	MaxCovers int
	// Memo, when non-nil, carries cover cost estimates across searches:
	// repeated GDL/EDL runs over the same query (server traffic) skip
	// reformulating and re-costing covers already explored. Estimates
	// served from the memo do not count toward ExploredLq/ExploredGq
	// (nothing was estimated anew).
	Memo *Memo
}

// Memo is a concurrency-safe cross-search cache of cover cost
// estimates, keyed by (cover key, estimator name). It must be dropped
// when the TBox, the data, or the estimator's statistics change — the
// Answerer ties its lifetime to the answer cache's versioned keys.
type Memo struct {
	mu sync.Mutex
	m  map[memoKey]memoEntry
}

type memoKey struct {
	cover string
	est   string
}

type memoEntry struct {
	cost float64
	jucq query.JUCQ
}

// NewMemo returns an empty cross-search estimate cache.
func NewMemo() *Memo {
	return &Memo{m: make(map[memoKey]memoEntry)}
}

// Len returns the number of memoized estimates.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

func (m *Memo) get(cover, est string) (memoEntry, bool) {
	m.mu.Lock()
	e, ok := m.m[memoKey{cover, est}]
	m.mu.Unlock()
	return e, ok
}

func (m *Memo) put(cover, est string, e memoEntry) {
	m.mu.Lock()
	m.m[memoKey{cover, est}] = e
	m.mu.Unlock()
}

// evaluator memoizes cover cost estimates within one search, and
// through Options.Memo across searches. Memo keys are scoped by the
// query's canonical form: Cover.Key only encodes the fragment bitmasks,
// so two queries with the same atom count produce colliding cover keys
// and must not share entries.
type evaluator struct {
	ref   *reformulate.Reformulator
	est   Estimator
	fest  FragmentEstimator // est at fragment level; nil scores whole trees
	memo  *Memo
	scope string
	seen  map[string]float64
	jucqs map[string]query.JUCQ
	frags map[string]*fragment // the fragment table, by reformulate.Key
	lq    int
	gq    int
	err   error
}

// lowerFragment builds a fragment's plan subtree, exactly as it sits
// in Rewrite(FromJUCQ(j)); a variable so tests can count lowerings.
var lowerFragment = func(u query.UCQ) *plan.Node { return plan.Rewrite(plan.FromUCQ(u)) }

func newEvaluator(ref *reformulate.Reformulator, est Estimator, memo *Memo, q query.CQ) *evaluator {
	fest, _ := est.(FragmentEstimator)
	return &evaluator{ref: ref, est: est, fest: fest, memo: memo, scope: query.CanonicalKey(q) + ";",
		seen: make(map[string]float64), jucqs: make(map[string]query.JUCQ), frags: make(map[string]*fragment)}
}

// fragment returns the fragment query's table entry, reformulating and
// estimating (or lowering) it on first sight.
func (ev *evaluator) fragment(fq query.CQ) (*fragment, error) {
	key := reformulate.Key(fq)
	if f, ok := ev.frags[key]; ok {
		return f, nil
	}
	u, err := ev.ref.Reformulate(fq)
	if err != nil {
		return nil, err
	}
	u.Name = fq.Name
	var f *fragment
	if ev.fest != nil {
		f = estimateFragment(ev.fest, u)
	} else {
		f = &fragment{ucq: u, tree: lowerFragment(u)}
	}
	ev.frags[key] = f
	return f, nil
}

// estimate returns the cover's cost, scoring it from the fragment table
// if the cover has not been seen before (in this search or in the
// shared memo).
func (ev *evaluator) estimate(c cover.Cover) (float64, bool) {
	key := ev.scope + c.Key()
	if v, ok := ev.seen[key]; ok {
		return v, true
	}
	if ev.memo != nil {
		if e, ok := ev.memo.get(key, ev.est.Name()); ok {
			ev.seen[key] = e.cost
			ev.jucqs[key] = e.jucq
			return e.cost, true
		}
	}
	frags := make([]*fragment, 0, len(c.Frags))
	j, err := c.ReformulateJUCQWith(func(fq query.CQ) (query.UCQ, error) {
		f, err := ev.fragment(fq)
		if err != nil {
			return query.UCQ{}, err
		}
		frags = append(frags, f)
		return f.ucq, nil
	})
	if err != nil {
		ev.err = err
		return 0, false
	}
	v := ev.score(j, frags)
	ev.seen[key] = v
	ev.jucqs[key] = j
	if ev.memo != nil {
		ev.memo.put(key, ev.est.Name(), memoEntry{cost: v, jucq: j})
	}
	if c.IsGeneralized() {
		ev.gq++
	} else {
		ev.lq++
	}
	return v, true
}

// score costs a cover from its fragments' table entries: a
// FragmentEstimator combines their estimates; any other estimator
// scores the rewritten plan tree — the exact shape core.Answerer hands
// the execution backend — reassembled from the cached subtrees.
func (ev *evaluator) score(j query.JUCQ, frags []*fragment) float64 {
	if ev.fest != nil {
		return coverCost(ev.fest, frags)
	}
	trees := make([]*plan.Node, len(frags))
	for i, f := range frags {
		trees[i] = f.tree
	}
	return ev.est.Estimate(plan.CoverJoin(j.Name, j.Head, trees))
}

// GDL runs the greedy cover search of Algorithm 1: starting from Croot,
// repeatedly apply the best cost-improving move among unioning two
// fragments and enlarging a fragment with a connected atom; stop when
// no move improves the current cover (or the time limit strikes).
func GDL(q query.CQ, t *dllite.TBox, ref *reformulate.Reformulator, est Estimator, opts Options) Result {
	start := time.Now()
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	ev := newEvaluator(ref, est, opts.Memo, q)
	cur := cover.RootCover(q, t)
	curCost, ok := ev.estimate(cur)
	if !ok {
		return Result{Err: ev.err, Elapsed: time.Since(start)}
	}
	moves := 0
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		bestCover := cover.Cover{}
		bestCost := curCost
		found := false
		consider := func(c cover.Cover) bool {
			v, ok := ev.estimate(c)
			if !ok {
				return false
			}
			// Algorithm 1 keeps a move when it is at least as good as
			// the current cover and better than the best move so far.
			if (!found && v <= curCost) || (found && v < bestCost) {
				bestCover = c
				bestCost = v
				found = true
			}
			return true
		}
		// Union moves.
		for i := 0; i < len(cur.Frags); i++ {
			for j := i + 1; j < len(cur.Frags); j++ {
				if !consider(cur.UnionFragments(i, j)) {
					return Result{Err: ev.err, Elapsed: time.Since(start)}
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					goto done
				}
			}
		}
		// Enlarge moves: add a connected atom to a fragment's F-part.
		for i := 0; i < len(cur.Frags); i++ {
			for a := 0; a < len(q.Atoms); a++ {
				c, applies := cur.EnlargeFragment(i, a)
				if !applies {
					continue
				}
				// The atom must share a variable with the fragment
				// (Algorithm 1, line 5) and keep the cover valid.
				if !fragmentConnectedTo(cur, i, a) || c.Validate() != nil {
					continue
				}
				if !consider(c) {
					return Result{Err: ev.err, Elapsed: time.Since(start)}
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					goto done
				}
			}
		}
		if !found {
			// Algorithm 1 stops when no candidate move has estimated
			// cost ≤ the current cover's. Equal-cost moves are taken;
			// termination is guaranteed because unions strictly reduce
			// the fragment count and enlargements strictly grow the
			// fragments.
			break
		}
		cur = bestCover
		curCost = bestCost
		moves++
	}
done:
	key := ev.scope + cur.Key()
	return Result{
		Cover:      cur,
		JUCQ:       ev.jucqs[key],
		Cost:       curCost,
		Elapsed:    time.Since(start),
		ExploredLq: ev.lq,
		ExploredGq: ev.gq,
		Moves:      moves,
	}
}

// fragmentConnectedTo reports whether atom a shares a variable with
// fragment i's F-part.
func fragmentConnectedTo(c cover.Cover, i, a int) bool {
	f := c.Frags[i].F
	for k := 0; k < len(c.Q.Atoms); k++ {
		if f&(1<<uint(k)) != 0 && c.Q.Atoms[k].SharesVar(c.Q.Atoms[a]) {
			return true
		}
	}
	return false
}

// EDL exhaustively searches Lq and Gq (Section 5.3), up to
// opts.MaxCovers covers, returning the cheapest cover found. As the
// paper observes (Table 6), this is only feasible for small queries.
func EDL(q query.CQ, t *dllite.TBox, ref *reformulate.Reformulator, est Estimator, opts Options) Result {
	start := time.Now()
	ev := newEvaluator(ref, est, opts.Memo, q)
	var best cover.Cover
	bestCost := -1.0
	cover.EnumerateGeneralizedCovers(q, t, opts.MaxCovers, func(c cover.Cover) bool {
		v, ok := ev.estimate(c)
		if !ok {
			return false
		}
		if bestCost < 0 || v < bestCost {
			best = c
			bestCost = v
		}
		return true
	})
	if ev.err != nil {
		return Result{Err: ev.err, Elapsed: time.Since(start)}
	}
	key := ev.scope + best.Key()
	return Result{
		Cover:      best,
		JUCQ:       ev.jucqs[key],
		Cost:       bestCost,
		Elapsed:    time.Since(start),
		ExploredLq: ev.lq,
		ExploredGq: ev.gq,
	}
}
