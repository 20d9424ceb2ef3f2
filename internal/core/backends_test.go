package core

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlexec"
)

// lubmAnswerer wires an Answerer over a 1-university LUBM∃ database.
func lubmAnswerer(t *testing.T) *Answerer {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 2}, db)
	db.Finalize()
	return New(lubm.TBox(), db, engine.ProfilePostgres())
}

// emptyAnswerer wires an Answerer over a LUBM TBox with no facts.
func emptyAnswerer(t *testing.T) *Answerer {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	db.Finalize()
	return New(lubm.TBox(), db, engine.ProfilePostgres())
}

func sorted(tuples [][]string) []string {
	out := make([]string, len(tuples))
	for i, tu := range tuples {
		out[i] = strings.Join(tu, "\x00")
	}
	sort.Strings(out)
	return out
}

// sweepQueries keeps the differential sweep (and its -race run)
// tractable for EDL's exhaustive enumeration: the chain, the 3-atom
// head-of query, the 2-atom widest-union Q11, and the 4-atom Q12.
func sweepQueries() []query.CQ {
	qs := lubm.Queries()
	return []query.CQ{qs[1], qs[3], qs[10], qs[11]}
}

// TestBackendsAgreeOnLUBM: every strategy must return the same certain
// answers through the native streaming backend, through the SQL-text
// backend, and through the shard backend at several fan-outs (including
// 1 — the degenerate partitioning — and 7, which leaves some shards
// empty on small data) — all lowerings of one logical plan. A separate
// Answerer per variant keeps the answer cache from conflating shard
// counts (the cache key carries the backend name, not its fan-out).
func TestBackendsAgreeOnLUBM(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *Answerer{
		"lubm1": lubmAnswerer,
		"empty": emptyAnswerer,
	} {
		native := build(t)
		variants := map[string]*Answerer{
			"sql": build(t), "shard1": build(t), "shard2": build(t), "shard7": build(t),
		}
		variants["sql"].Backend = sqlexec.NewBackend(variants["sql"].DB, variants["sql"].Profile)
		for label, shards := range map[string]int{"shard1": 1, "shard2": 2, "shard7": 7} {
			a := variants[label]
			b, err := NewBackendByName("shard", a.DB, a.Profile, shards)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			a.Backend = b
		}
		for _, q := range sweepQueries() {
			for _, s := range Strategies() {
				rn, err := native.Answer(q, s)
				if err != nil {
					t.Fatalf("%s/%s/%s native: %v", name, q.Name, s, err)
				}
				if name == "empty" && len(rn.Tuples) != 0 {
					t.Errorf("%s/%s: %d answers from an empty ABox", q.Name, s, len(rn.Tuples))
				}
				for label, a := range variants {
					rv, err := a.Answer(q, s)
					if err != nil {
						t.Fatalf("%s/%s/%s %s: %v", name, q.Name, s, label, err)
					}
					if !reflect.DeepEqual(sorted(rn.Tuples), sorted(rv.Tuples)) {
						t.Errorf("%s/%s/%s: backends disagree: native %d rows, %s %d rows",
							name, q.Name, s, len(rn.Tuples), label, len(rv.Tuples))
					}
				}
			}
		}
	}
}

// TestSearchCostMatchesExecutedEstimate: the cost the cover search
// assigned to the winning cover is exactly the backend's estimate of
// the plan that then executes — search and execution score the same IR
// with the same estimator, so nothing is lost in translation.
func TestSearchCostMatchesExecutedEstimate(t *testing.T) {
	a := lubmAnswerer(t)
	for _, q := range sweepQueries() {
		// gdl-rdbms searches with the engine's own estimator; EstCost
		// on the result is that same estimator applied to res.Plan.
		res, err := a.Answer(q, StrategyGDLRDBMS)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Search == nil {
			t.Fatalf("%s: no search result", q.Name)
		}
		if res.Search.Cost != res.EstCost {
			t.Errorf("%s/gdl-rdbms: search cost %.4f != executed estimate %.4f",
				q.Name, res.Search.Cost, res.EstCost)
		}

		// gdl-ext searches with the external model ε: its winning cost
		// must equal ε applied to the executed plan.
		res, err = a.Answer(q, StrategyGDLExt)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got := a.Model.Estimate(res.Plan).Cost; res.Search.Cost != got {
			t.Errorf("%s/gdl-ext: search cost %.4f != ε(plan) %.4f",
				q.Name, res.Search.Cost, got)
		}
	}
}

// TestNativeEstimateMatchesPlanners: the native backend's estimate of
// every executed plan is bit-identical to the dialect planners' figure
// for the same plan extracted back into its dialect — compiling the IR
// directly changes no cost and therefore no chosen cover.
func TestNativeEstimateMatchesPlanners(t *testing.T) {
	a := lubmAnswerer(t)
	native := engine.NewBackend(a.DB, a.Profile)
	strategies := []Strategy{StrategyUCQ, StrategyUCQMin, StrategyUSCQ, StrategyCroot, StrategyGDLRDBMS, StrategyGDLExt}
	for _, q := range lubm.Queries() {
		for _, s := range strategies {
			res, err := a.Answer(q, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s, err)
			}
			want := plannerEstimate(t, a, res.Plan)
			exec, err := native.Compile(res.Plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s, err)
			}
			if got := exec.Estimate(); got != want {
				t.Errorf("%s/%s: native estimate %+v, planners %+v", q.Name, s, got, want)
			}
			if got := native.Estimate(res.Plan); got != want {
				t.Errorf("%s/%s: native Estimate %+v, planners %+v", q.Name, s, got, want)
			}
		}
	}
}

// plannerEstimate plans the dialect query the tree extracts into.
func plannerEstimate(t *testing.T, a *Answerer, n *plan.Node) plan.Estimate {
	t.Helper()
	lo, err := plan.Extract(n)
	if err != nil {
		t.Fatal(err)
	}
	switch lo.Kind {
	case plan.KindUCQ:
		p := engine.PlanUCQ(lo.UCQ, a.DB, a.Profile)
		return plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	case plan.KindUSCQ:
		p := engine.PlanUSCQ(lo.USCQ, a.DB, a.Profile)
		return plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	case plan.KindJUCQ:
		p := engine.PlanJUCQ(lo.JUCQ, a.DB, a.Profile)
		return plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	default:
		p := engine.PlanJUSCQ(lo.JUSCQ, a.DB, a.Profile)
		return plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	}
}

// TestExplainEveryStrategy: each strategy's Result carries an EXPLAIN
// that survives a JSON round trip with estimated figures and the actual
// root row count of the run.
func TestExplainEveryStrategy(t *testing.T) {
	a := lubmAnswerer(t)
	q := lubm.Queries()[3]
	for _, s := range Strategies() {
		res, err := a.Answer(q, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		ex := res.Explain
		if ex == nil || ex.Root == nil {
			t.Fatalf("%s: no explain", s)
		}
		if ex.Backend != "native" {
			t.Errorf("%s: backend = %q", s, ex.Backend)
		}
		if ex.Root.ActualRows != int64(len(res.Tuples)) {
			t.Errorf("%s: root actual %d, want %d answers", s, ex.Root.ActualRows, len(res.Tuples))
		}
		if ex.Root.EstRows < 0 || ex.EstCost <= 0 {
			t.Errorf("%s: estimates missing (rows %.1f, cost %.1f)", s, ex.Root.EstRows, ex.EstCost)
		}
		blob, err := json.Marshal(ex)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		var back plan.Explain
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(&back, ex) {
			t.Errorf("%s: explain changed through JSON", s)
		}
	}
}

// TestSQLBackendExplainCarriesStatement: the SQL backend's EXPLAIN
// reports the statement it shipped.
func TestSQLBackendExplainCarriesStatement(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	a.Backend = sqlexec.NewBackend(a.DB, a.Profile)
	res, err := a.Answer(query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)"), StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil || res.Explain.Backend != "sql" {
		t.Fatalf("explain = %+v", res.Explain)
	}
	if !strings.Contains(res.Explain.SQL, "SELECT") {
		t.Errorf("explain carries no SQL: %q", res.Explain.SQL)
	}
	if res.Explain.Root.ActualRows != int64(len(res.Tuples)) {
		t.Errorf("root actual %d, want %d", res.Explain.Root.ActualRows, len(res.Tuples))
	}
}
