// Benchmarks regenerating the paper's evaluation artifacts (Section 6).
// One top-level benchmark per table/figure, with sub-benchmarks per
// query × strategy so `go test -bench=.` prints the same series the
// paper plots:
//
//	BenchmarkFigure2    — Fig. 2: Postgres profile, simple layout
//	BenchmarkFigure3    — Fig. 3: DB2 profile, simple + RDF layouts
//	BenchmarkTable6     — Tab. 6: search-space exploration for A3–A6
//	BenchmarkStats      — §2.3/6.1: CQ-to-UCQ reformulation per query
//	BenchmarkTimeLimitedGDL — §6.4: 20 ms-budget GDL
//	BenchmarkGDLSearch  — §6.3: full GDL search per query/estimator
//
// Dataset scale is kept benchmark-friendly (BenchUniversities); use
// cmd/experiments for larger runs.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/shard"
)

// BenchUniversities scales the benchmark databases.
const BenchUniversities = 4

var (
	envOnce sync.Once
	envPG   *exp.Env // Postgres profile, simple layout
	envDB2  *exp.Env // DB2 profile, simple layout
	envRDF  *exp.Env // DB2 profile, RDF layout
)

func benchEnvs() (*exp.Env, *exp.Env, *exp.Env) {
	envOnce.Do(func() {
		envPG = exp.BuildEnv(BenchUniversities, 1, engine.LayoutSimple, engine.ProfilePostgres())
		envDB2 = exp.BuildEnv(BenchUniversities, 1, engine.LayoutSimple, engine.ProfileDB2())
		envRDF = exp.BuildEnv(BenchUniversities, 1, engine.LayoutRDF, engine.ProfileDB2())
	})
	return envPG, envDB2, envRDF
}

// BenchmarkFigure2 measures evaluation time of each Figure 2 series
// (UCQ, Croot, GDL/RDBMS, GDL/ext) per workload query on the Postgres
// profile and simple layout.
func BenchmarkFigure2(b *testing.B) {
	env, _, _ := benchEnvs()
	for _, q := range lubm.Queries() {
		for _, s := range exp.Figure2Strategies() {
			b.Run(fmt.Sprintf("%s/%s", q.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cell := exp.RunCell(env, q, s)
					if cell.Err != nil {
						b.Fatal(cell.Err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure3 measures the DB2-profile series of Figure 3 on both
// layouts; statement-too-long failures are reported as skips (the
// figure's grey bars), not errors.
func BenchmarkFigure3(b *testing.B) {
	_, envS, envR := benchEnvs()
	for _, q := range lubm.Queries() {
		for _, s := range exp.Figure2Strategies() {
			b.Run(fmt.Sprintf("%s/%s/simple", q.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if cell := exp.RunCell(envS, q, s); cell.Err != nil {
						b.Fatal(cell.Err)
					}
				}
			})
		}
		for _, s := range []core.Strategy{core.StrategyUCQ, core.StrategyCroot, core.StrategyGDLRDBMS} {
			b.Run(fmt.Sprintf("%s/%s/rdf", q.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cell := exp.RunCell(envR, q, s)
					if cell.Err != nil {
						var tooLong *engine.StatementTooLongError
						if asErr(cell.Err, &tooLong) {
							b.Skipf("statement too long (%d bytes) — Figure 3 failure bar", tooLong.Size)
						}
						b.Fatal(cell.Err)
					}
				}
			})
		}
	}
}

func asErr(err error, target **engine.StatementTooLongError) bool {
	t, ok := err.(*engine.StatementTooLongError)
	if ok {
		*target = t
	}
	return ok
}

// BenchmarkTable6 measures the cover-space work of Section 6.2: safe
// and generalized cover enumeration plus the GDL search, per star
// query.
func BenchmarkTable6(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, q := range lubm.StarQueries() {
		b.Run(q.Name+"/enumerate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cover.CountSafeCovers(q, env.TBox, 0)
				cover.CountGeneralizedCovers(q, env.TBox, exp.GqCap)
			}
		})
		b.Run(q.Name+"/gdl", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.GDL(q, env.TBox, ref,
					&search.ExtEstimator{Model: env.A.Model}, search.Options{})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkStats measures CQ-to-UCQ reformulation time per workload
// query (the §6.1 reformulation-size discussion; RAPID's job in the
// paper). A fresh Reformulator per iteration defeats memoization.
func BenchmarkStats(b *testing.B) {
	tb := lubm.TBox()
	for _, q := range lubm.Queries() {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref := reformulate.New(tb)
				if _, err := ref.Reformulate(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimeLimitedGDL measures the §6.4 variant: GDL stopped after
// 20 ms, per query.
func BenchmarkTimeLimitedGDL(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	est := &search.ExtEstimator{Model: env.A.Model}
	for _, q := range lubm.Queries() {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.GDL(q, env.TBox, ref, est, search.Options{TimeLimit: 20 * time.Millisecond})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkGDLSearch measures full GDL per estimator on the largest
// workload queries (the §6.3 "GDL ran between 1 ms and 207 ms"
// numbers): the ext model, the native RDBMS profile, and the shard
// backend's estimate at 2 shards, scored at fragment level through its
// cover scorer. The plain sub-benchmarks
// reuse one Reformulator, so past the first iteration PerfectRef is
// fully memoized and they time the search alone. The first-seen ones
// search a query with one variable bound to a constant through a fresh
// Reformulator per iteration — what a never-seen request costs.
func BenchmarkGDLSearch(b *testing.B) {
	env, _, _ := benchEnvs()
	sharded, err := shard.New(env.DB, env.Profile, 2)
	if err != nil {
		b.Fatal(err)
	}
	ests := []struct {
		name string
		est  search.Estimator
	}{
		{"ext", &search.ExtEstimator{Model: env.A.Model}},
		{"rdbms", &search.RDBMSEstimator{DB: env.DB, Profile: env.Profile}},
		{"rdbms-shard2", &search.BackendEstimator{Backend: sharded}},
	}
	qs := lubm.Queries()
	for _, c := range []struct {
		q      query.CQ
		v, cst string
	}{
		{qs[7], "d", "Univ0_Dept0"},         // Q8
		{qs[8], "d", "Univ0_Dept0"},         // Q9
		{qs[9], "c", "Univ0_Dept0_Course0"}, // Q10
	} {
		bound := bindVar(c.q, c.v, c.cst)
		for _, e := range ests {
			b.Run(c.q.Name+"/"+e.name, func(b *testing.B) {
				ref := reformulate.New(env.TBox)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					search.GDL(c.q, env.TBox, ref, e.est, search.Options{})
				}
			})
			b.Run(c.q.Name+"/"+e.name+"/first-seen", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					search.GDL(bound, env.TBox, reformulate.New(env.TBox), e.est, search.Options{})
				}
			})
		}
	}
}

// bindVar replaces variable v by the constant c throughout q.
func bindVar(q query.CQ, v, c string) query.CQ {
	out := query.CQ{Name: q.Name, Head: q.Head}
	for _, a := range q.Atoms {
		args := make([]query.Term, len(a.Args))
		for i, t := range a.Args {
			if t.IsVar() && t.Name == v {
				t = query.Cst(c)
			}
			args[i] = t
		}
		out.Atoms = append(out.Atoms, query.Atom{Pred: a.Pred, Args: args})
	}
	return out
}

// BenchmarkExecutorPaths reports every UCQ evaluation path the engine
// offers on the full workload: the streaming operator pipeline (cold =
// a fresh operator tree per execution, warm = one tree re-executed,
// the serving mode; sequential and parallel union) and the
// materialize-everything reference executor. Run with -benchmem to
// compare allocations.
func BenchmarkExecutorPaths(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, qi := range []int{1, 2, 8} { // Q2, Q3, Q9
		q := lubm.Queries()[qi]
		u := ref.MustReformulate(q)
		c := compileNative(b, env, plan.FromUCQ(u))
		b.Run(q.Name+"/streaming", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainNative(c, 1)
			}
		})
		b.Run(q.Name+"/streaming-warm", func(b *testing.B) {
			b.ReportAllocs()
			op, _ := c.Tree(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.Drain(op)
			}
		})
		b.Run(q.Name+"/streaming-parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainNative(c, 4)
			}
		})
		up := engine.PlanUCQ(u, env.DB, env.Profile)
		b.Run(q.Name+"/materialized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.ExecUCQMaterialized(up, env.DB)
			}
		})
	}
}

// compileNative compiles a plan on env's native backend.
func compileNative(tb testing.TB, env *exp.Env, n *plan.Node) *engine.Compiled {
	tb.Helper()
	c, err := engine.NewBackend(env.DB, env.Profile).CompilePlan(n)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// drainNative drains one fresh operator tree of a compiled plan.
func drainNative(c *engine.Compiled, workers int) *engine.Relation {
	op, _ := c.Tree(workers)
	return engine.Drain(op)
}

// runNative plans and runs n on env's native backend: the whole
// compile-execute-decode path a query takes.
func runNative(tb testing.TB, env *exp.Env, n *plan.Node) *plan.RunResult {
	rr, err := compileNative(tb, env, n).Run(1)
	if err != nil {
		tb.Fatal(err)
	}
	return rr
}
