// Package core is the paper's contribution as a library: cost-driven
// cover-based query answering for DL-LiteR over an RDBMS-style engine
// (Figure 1). An Answerer owns the TBox, the loaded database, the
// engine profile, and the reformulation/search machinery; Answer runs
// one of the strategies the experiments compare:
//
//   - StrategyUCQ: the standard CQ-to-UCQ reformulation [13] evaluated
//     directly (the single-fragment cover).
//   - StrategyUSCQ: the CQ-to-USCQ reformulation [33].
//   - StrategyCroot: the JUCQ induced by the root cover (Definition 6).
//   - StrategyGDLRDBMS: GDL guided by the engine's own cost estimation.
//   - StrategyGDLExt: GDL guided by the external cost model ε.
//   - StrategyEDL: exhaustive search (small queries only).
//
// Every strategy computes the same certain answers (Theorems 1 and 3);
// they differ only in evaluation cost — and, on DB2-like profiles, in
// whether the SQL statement is accepted at all.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/sqlgen"
)

// Strategy selects how the FOL reformulation handed to the engine is
// chosen.
type Strategy string

// The strategies compared in the paper's experiments (Section 6).
const (
	StrategyUCQ      Strategy = "ucq"
	StrategyUCQMin   Strategy = "ucq-min" // §2.3's minimal UCQ
	StrategyUSCQ     Strategy = "uscq"
	StrategyCroot    Strategy = "croot"
	StrategyGDLRDBMS Strategy = "gdl-rdbms"
	StrategyGDLExt   Strategy = "gdl-ext"
	StrategyEDL      Strategy = "edl"
)

// Strategies lists all supported strategies.
func Strategies() []Strategy {
	return []Strategy{StrategyUCQ, StrategyUCQMin, StrategyUSCQ, StrategyCroot, StrategyGDLRDBMS, StrategyGDLExt, StrategyEDL}
}

// ValidStrategy reports whether s is one of Strategies().
func ValidStrategy(s Strategy) bool {
	for _, v := range Strategies() {
		if v == s {
			return true
		}
	}
	return false
}

// Description is the one-line summary of the strategy (served by
// GET /strategies).
func (s Strategy) Description() string {
	switch s {
	case StrategyUCQ:
		return "standard CQ-to-UCQ reformulation evaluated directly (single-fragment cover)"
	case StrategyUCQMin:
		return "containment-minimized UCQ reformulation (§2.3)"
	case StrategyUSCQ:
		return "factorized CQ-to-USCQ reformulation (semi-conjunctive disjuncts)"
	case StrategyCroot:
		return "JUCQ induced by the root cover (Definition 6), no search"
	case StrategyGDLRDBMS:
		return "greedy cover search costed by the engine's own estimation"
	case StrategyGDLExt:
		return "greedy cover search costed by the external model ε"
	case StrategyEDL:
		return "exhaustive cover search (small queries only)"
	}
	return ""
}

// Answerer answers conjunctive queries over a KB through the engine.
// Answer is safe for concurrent use: the reformulator, the caches, the
// profile's feedback sink, and the engine's statistics are all
// mutex-guarded, and the database is read-only during evaluation.
type Answerer struct {
	TBox    *dllite.TBox
	DB      *engine.DB
	Profile *engine.Profile

	Ref        *reformulate.Reformulator
	Model      *cost.Model
	SearchOpts search.Options

	// Backend compiles and executes the logical plans every strategy
	// lowers into. nil selects the native streaming engine;
	// sqlexec.NewBackend routes evaluation through the SQL text itself
	// (what shipping the reformulation to a real RDBMS does —
	// formerly the ViaSQL switch). The backend's Name keys the answer
	// cache, so swapping backends never serves a stale executable.
	Backend plan.Backend

	// Workers > 1 spreads evaluation over that many worker goroutines
	// (capped at GOMAXPROCS): union arms through the parallel union
	// operator, and the build sides of multi-fragment cover plans
	// through the streaming hash join's parallel build drain. Zero or
	// one keeps the fully sequential pipeline, matching the paper's
	// single-threaded engines. The SQL backend ignores it.
	Workers int

	// Cache, when non-nil, memoizes the front half of Answer (cover
	// search, reformulation, SQL generation, planning) per canonical
	// query, strategy, and TBox/data version. New enables it with
	// DefaultAnswerCacheSize; set to nil to re-run the full pipeline on
	// every request. Note that cached plans freeze the cardinality
	// estimates of the moment they were planned; Profile.Feedback
	// refinements apply to new entries only.
	Cache *AnswerCache

	// tboxVer counts TBox swaps (InvalidateTBox); it versions cache keys.
	tboxVer atomic.Uint64

	// The cover-estimate memo shared across searches, dropped whenever
	// the TBox or data version moves.
	memoMu   sync.Mutex
	memo     *search.Memo
	memoTbox uint64
	memoData uint64
}

// New wires an Answerer for the given TBox, database, and profile.
func New(tb *dllite.TBox, db *engine.DB, prof *engine.Profile) *Answerer {
	return &Answerer{
		TBox:    tb,
		DB:      db,
		Profile: prof,
		Ref:     reformulate.New(tb),
		Model:   cost.NewModel(db),
		Cache:   NewAnswerCache(DefaultAnswerCacheSize),
	}
}

// InvalidateTBox must be called after swapping in a new TBox: it
// rebuilds the reformulator's axiom indexes and bumps the TBox version
// so cached plans and cover estimates from the old ontology can no
// longer be served. ABox (data) mutations need no call here —
// engine.DB bumps its own version on every mutation, the cache keys
// include it, and the cost model reads the current statistics.
func (a *Answerer) InvalidateTBox() {
	a.Ref = reformulate.New(a.TBox)
	a.tboxVer.Add(1)
	// Backends with their own caches (the shard backend's per-shard
	// plan/result LRUs) key on the data version only — a TBox swap must
	// flush them explicitly.
	if pc, ok := a.Backend.(interface{ PurgeCache() }); ok {
		pc.PurgeCache()
	}
}

// searchOpts returns the configured search options with the shared
// cover-estimate memo wired in (unless the caller set their own, or
// disabled caching entirely by setting Cache to nil — the memo's
// lifetime is tied to the cache's versioned keys).
func (a *Answerer) searchOpts() search.Options {
	opts := a.SearchOpts
	if opts.Memo == nil && a.Cache != nil {
		opts.Memo = a.currentMemo()
	}
	return opts
}

// backend returns the configured execution backend, defaulting to the
// native streaming engine.
func (a *Answerer) backend() plan.Backend {
	if a.Backend != nil {
		return a.Backend
	}
	return engine.NewBackend(a.DB, a.Profile)
}

// currentMemo returns the cross-search estimate memo for the current
// TBox/data versions, dropping stale ones.
func (a *Answerer) currentMemo() *search.Memo {
	tv, dv := a.tboxVer.Load(), a.DB.Version()
	a.memoMu.Lock()
	defer a.memoMu.Unlock()
	if a.memo == nil || a.memoTbox != tv || a.memoData != dv {
		a.memo = search.NewMemo()
		a.memoTbox, a.memoData = tv, dv
	}
	return a.memo
}

// Result reports one strategy's outcome on one query.
type Result struct {
	Strategy Strategy
	Query    query.CQ

	Tuples [][]string

	Cover        cover.Cover
	JUCQ         query.JUCQ
	NumDisjuncts int // total CQs across fragments
	NumFragments int

	// Plan is the logical plan the strategy lowered into — the tree
	// the backend compiled and executed (shared with the cache; do
	// not mutate).
	Plan *plan.Node
	// Explain annotates Plan with the backend's estimates and the
	// actual per-operator row counters of this execution.
	Explain *plan.Explain

	SQL     string
	SQLSize int
	EstCost float64

	SearchTime time.Duration // cover search (zero for fixed strategies and cache hits)
	EvalTime   time.Duration

	// CacheHit reports that the cover, reformulation, SQL, and plan came
	// from the answer cache — only evaluation ran for this request.
	CacheHit bool

	// Search carries the raw GDL/EDL result when applicable (fresh
	// searches only; cache hits skip the search entirely).
	Search *search.Result
}

// Answer runs the strategy end to end: choose a cover, reformulate,
// translate to SQL, enforce the profile's statement limit, and evaluate.
// The front half (everything up to and including planning) is served
// from the answer cache when possible; evaluation always runs against
// the live data.
func (a *Answerer) Answer(q query.CQ, s Strategy) (*Result, error) {
	return a.AnswerWith(q, s, nil)
}

// AnswerWith is Answer with a per-call execution backend override
// (nil selects the Answerer's configured backend). The cache keys by
// backend name, so one Answerer serves requests across backends
// without ever handing a plan compiled by one to another.
func (a *Answerer) AnswerWith(q query.CQ, s Strategy, backend plan.Backend) (*Result, error) {
	if backend == nil {
		backend = a.backend()
	}
	res := &Result{Strategy: s, Query: q}
	var key cacheKey
	if a.Cache != nil {
		key = cacheKey{
			canon:    query.CanonicalKey(q),
			strategy: s,
			tboxVer:  a.tboxVer.Load(),
			dataVer:  a.DB.Version(),
			backend:  backend.Name(),
		}
		if cp, ok := a.Cache.get(key); ok {
			res.CacheHit = true
			return a.execute(cp, res, backend)
		}
	}
	cp, err := a.buildPlan(q, s, res, backend)
	if err != nil {
		return nil, err
	}
	if a.Cache != nil {
		a.Cache.put(key, cp)
	}
	return a.execute(cp, res, backend)
}

// rewritePlan is the IR simplification pass buildPlan applies; a
// variable so tests can substitute a deliberately broken rewrite and
// prove plan.Validate catches its output at plan time.
var rewritePlan = plan.Rewrite

// buildPlan is the cacheable front half of Answer: choose the cover,
// reformulate it, generate the SQL, and plan the evaluation. It fills
// res's search fields (fresh searches only reach here).
func (a *Answerer) buildPlan(q query.CQ, s Strategy, res *Result, backend plan.Backend) (*cachedPlan, error) {
	var c cover.Cover
	switch s {
	case StrategyUCQ, StrategyUCQMin, StrategyUSCQ:
		c = cover.SingleFragment(q)
	case StrategyCroot:
		c = cover.RootCover(q, a.TBox)
	case StrategyGDLRDBMS:
		// The "RDBMS's own estimation" is the executing backend's: a
		// non-native backend (sql, shard) scores candidate covers with
		// its own Estimate, so the search optimizes the plan that will
		// actually run there.
		var est search.Estimator = &search.RDBMSEstimator{DB: a.DB, Profile: a.Profile}
		if backend.Name() != "native" {
			est = &search.BackendEstimator{Backend: backend}
		}
		sr := search.GDL(q, a.TBox, a.Ref, est, a.searchOpts())
		if sr.Err != nil {
			return nil, sr.Err
		}
		c = sr.Cover
		res.Search = &sr
		res.SearchTime = sr.Elapsed
	case StrategyGDLExt:
		sr := search.GDL(q, a.TBox, a.Ref, &search.ExtEstimator{Model: a.Model}, a.searchOpts())
		if sr.Err != nil {
			return nil, sr.Err
		}
		c = sr.Cover
		res.Search = &sr
		res.SearchTime = sr.Elapsed
	case StrategyEDL:
		opts := a.searchOpts()
		if opts.MaxCovers == 0 {
			opts.MaxCovers = 20000 // the paper's A6 cutoff
		}
		sr := search.EDL(q, a.TBox, a.Ref, &search.ExtEstimator{Model: a.Model}, opts)
		if sr.Err != nil {
			return nil, sr.Err
		}
		c = sr.Cover
		res.Search = &sr
		res.SearchTime = sr.Elapsed
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", s)
	}
	cp := &cachedPlan{cover: c, numFragments: len(c.Frags), searchTime: res.SearchTime}

	if s == StrategyUSCQ {
		js, err := c.ReformulateJUSCQ(a.Ref)
		if err != nil {
			return nil, err
		}
		for _, sub := range js.Subs {
			cp.numDisjuncts += len(sub.Disjuncts)
		}
		cp.sql = sqlgen.JUSCQ(js, sqlgen.Options{Layout: a.DB.Layout})
		cp.ir = plan.FromJUSCQ(js)
	} else {
		j, err := c.ReformulateJUCQ(a.Ref)
		if err != nil {
			return nil, err
		}
		if s == StrategyUCQMin {
			// §2.3: evaluate the containment-minimized UCQ instead.
			m, err := a.Ref.ReformulateMinimal(q)
			if err != nil {
				return nil, err
			}
			j.Subs = []query.UCQ{m}
		}
		cp.jucq = j
		for _, sub := range j.Subs {
			cp.numDisjuncts += len(sub.Disjuncts)
		}
		cp.sql = sqlgen.JUCQ(j, sqlgen.Options{Layout: a.DB.Layout})
		cp.ir = plan.FromJUCQ(j)
	}
	// Backend-neutral IR simplification (single-arm union collapse,
	// nested project merge) — applied here so every backend compiles
	// the same rewritten tree the search estimators scored.
	// rewritePlan is a variable only so tests can stand in a broken
	// rewrite and assert plan.Validate rejects its output.
	cp.ir = rewritePlan(cp.ir)
	// Machine-checked invariants on the rewritten tree: a bad lowering
	// or a buggy rewrite rule fails here, before any backend compiles
	// it — not as silently wrong rows.
	if err := plan.Validate(cp.ir); err != nil {
		return nil, err
	}
	exec, err := backend.Compile(cp.ir)
	if err != nil {
		return nil, err
	}
	cp.exec = exec
	return cp, nil
}

// execute runs a (possibly cached) plan: enforce the profile's
// statement limit, run the compiled executable on the configured
// backend, and fill in the result (tuples, estimate, EXPLAIN).
func (a *Answerer) execute(cp *cachedPlan, res *Result, backend plan.Backend) (*Result, error) {
	res.Cover = cp.cover
	res.NumFragments = cp.numFragments
	res.NumDisjuncts = cp.numDisjuncts
	res.JUCQ = cp.jucq
	res.Plan = cp.ir
	res.SQL = cp.sql
	res.SQLSize = len(cp.sql)
	if err := a.Profile.CheckStatementSize(res.SQLSize); err != nil {
		return res, err
	}
	est := cp.exec.Estimate()
	start := time.Now()
	rr, err := cp.exec.Run(a.Workers)
	if err != nil {
		return res, err
	}
	res.EvalTime = time.Since(start)
	res.Tuples = rr.Tuples
	res.EstCost = est.Cost
	res.Explain = rr.Explain
	// Per-backend statistics feedback: hand the run's actuals back to
	// the backend that compiled the plan, so each backend's Estimate
	// self-corrects from its own executions.
	if ob, ok := backend.(plan.Observer); ok {
		ob.Observe(cp.ir, rr.Explain)
	}
	return res, nil
}

// Violation reports a disjointness constraint contradicted by the data.
type Violation struct {
	Axiom   dllite.Axiom
	Witness []string
}

// CheckConsistency verifies T-consistency of the loaded database by
// reformulation: for every negative constraint B1 ⊑ ¬B2, the boolean
// query asking for an individual in both B1 and B2 is answered through
// the engine; a non-empty answer is a violation. This scales to
// databases far beyond what dllite's saturation-based checker handles.
func (a *Answerer) CheckConsistency() ([]Violation, error) {
	var out []Violation
	for _, ax := range a.TBox.NegativeAxioms() {
		q, arity := unsatQuery(ax)
		u, err := a.Ref.Reformulate(q)
		if err != nil {
			return nil, err
		}
		exec, err := engine.NewBackend(a.DB, a.Profile).Compile(plan.FromUCQ(u))
		if err != nil {
			return nil, err
		}
		ans, err := exec.Run(1)
		if err != nil {
			return nil, err
		}
		if len(ans.Tuples) > 0 {
			w := ans.Tuples[0][:arity]
			out = append(out, Violation{Axiom: ax, Witness: w})
		}
	}
	return out, nil
}

// unsatQuery builds the violation witness query of a negative axiom.
func unsatQuery(ax dllite.Axiom) (query.CQ, int) {
	x, y := query.Var("x"), query.Var("y")
	conceptAtom := func(c dllite.Concept, primary, spare query.Term) query.Atom {
		if !c.Exists {
			return query.ConceptAtom(c.Name, primary)
		}
		if c.Role.Inv {
			return query.RoleAtom(c.Role.Name, spare, primary)
		}
		return query.RoleAtom(c.Role.Name, primary, spare)
	}
	switch ax.Kind {
	case dllite.ConceptDisjointness:
		a1 := conceptAtom(ax.LC, x, query.Var("w1"))
		a2 := conceptAtom(ax.RC, x, query.Var("w2"))
		return query.CQ{Name: "unsat", Head: []query.Term{x}, Atoms: []query.Atom{a1, a2}}, 1
	default: // RoleDisjointness
		s1, o1 := x, y
		if ax.LR.Inv {
			s1, o1 = y, x
		}
		s2, o2 := x, y
		if ax.RR.Inv {
			s2, o2 = y, x
		}
		return query.CQ{Name: "unsat", Head: []query.Term{x, y}, Atoms: []query.Atom{
			query.RoleAtom(ax.LR.Name, s1, o1),
			query.RoleAtom(ax.RR.Name, s2, o2),
		}}, 2
	}
}

// CompareStrategies answers q under every given strategy; per-strategy
// failures (e.g. statement too long) come back in errs so callers can
// distinguish "slow" from "failed", exactly like Figures 2–3.
func (a *Answerer) CompareStrategies(q query.CQ, strategies []Strategy) (results []*Result, errs []error) {
	results = make([]*Result, len(strategies))
	errs = make([]error, len(strategies))
	for i, s := range strategies {
		results[i], errs[i] = a.Answer(q, s)
	}
	return results, errs
}
