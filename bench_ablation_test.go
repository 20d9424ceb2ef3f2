// Ablation benchmarks for the design choices DESIGN.md calls out:
// the Postgres sampling shortcut, the RDF layout's column budget,
// reformulation memoization, UCQ-vs-USCQ factorization, the SQL round
// trip and the parallel union.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/sqlexec"
	"repro/internal/sqlgen"
)

// BenchmarkAblationSampling isolates the §6.3 estimation anomaly: GDL
// under the Postgres profile with and without the sampling shortcut on
// Q9 (whose reformulation has 300 arms). Without sampling the search
// costs more but picks the better cover.
func BenchmarkAblationSampling(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q9 := lubm.Queries()[8]
	run := func(b *testing.B, sampled bool) {
		prof := engine.ProfilePostgres()
		if !sampled {
			prof.SampleThreshold = 0
		}
		est := &search.RDBMSEstimator{DB: env.DB, Profile: prof}
		for i := 0; i < b.N; i++ {
			res := search.GDL(q9, env.TBox, ref, est, search.Options{})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.Run("Q9/sampled-estimation", func(b *testing.B) { run(b, true) })
	b.Run("Q9/full-estimation", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationRDFSlots sweeps the RDF layout's hashed-column
// budget: more columns mean longer SQL per atom (the statement-length
// failure driver) and slower probes.
func BenchmarkAblationRDFSlots(b *testing.B) {
	u := reformulate.New(lubm.TBox())
	q3 := lubm.Queries()[2]
	ucq := u.MustReformulate(q3)
	for _, slots := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("slots=%d/sqlgen", slots), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(sqlgen.UCQ(ucq, sqlgen.Options{Layout: engine.LayoutRDF, Slots: slots}))
			}
			b.ReportMetric(float64(size), "sql-bytes")
		})
	}
}

// BenchmarkAblationMemoization compares GDL with a shared (memoizing)
// Reformulator against a fresh one per cover estimate — the reuse that
// makes cover search affordable.
func BenchmarkAblationMemoization(b *testing.B) {
	env, _, _ := benchEnvs()
	q := lubm.Queries()[9] // Q10, 9 atoms
	est := &search.ExtEstimator{Model: env.A.Model}
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref := reformulate.New(env.TBox) // shared across the search
			res := search.GDL(q, env.TBox, ref, est, search.Options{})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("unmemoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Estimate every enumerated cover with a cold reformulator:
			// enumerate the same covers GDL's first round would.
			root := cover.RootCover(q, env.TBox)
			for f1 := 0; f1 < len(root.Frags); f1++ {
				for f2 := f1 + 1; f2 < len(root.Frags); f2++ {
					cold := reformulate.New(env.TBox)
					j, err := root.UnionFragments(f1, f2).ReformulateJUCQ(cold)
					if err != nil {
						b.Fatal(err)
					}
					est.EstimateJUCQ(j)
				}
			}
		}
	})
}

// BenchmarkAblationFactorization compares evaluating Q3's reformulation
// as a UCQ against the factorized USCQ ([33]'s finding that USCQs
// evaluate better).
func BenchmarkAblationFactorization(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q3 := lubm.Queries()[2]
	ucq := ref.MustReformulate(q3)
	uscq := query.FactorizeUCQ(ucq)
	b.Run("ucq/160-arms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runNative(b, env, plan.FromUCQ(ucq))
		}
	})
	b.Run(fmt.Sprintf("uscq/%d-scqs", len(uscq.Disjuncts)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runNative(b, env, plan.FromUSCQ(uscq))
		}
	})
}

// BenchmarkAblationSQLPath compares the engine's native JUCQ evaluation
// with the full SQL round-trip (generate text, parse, execute) — the
// overhead a driver-to-RDBMS hop adds on top of plan execution.
func BenchmarkAblationSQLPath(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q3 := lubm.Queries()[2]
	c := cover.RootCover(q3, env.TBox)
	j, err := c.ReformulateJUCQ(ref)
	if err != nil {
		b.Fatal(err)
	}
	sql := sqlgen.JUCQ(j, sqlgen.Options{Layout: engine.LayoutSimple})
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runNative(b, env, plan.FromJUCQ(j))
		}
	})
	b.Run("sql-roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlexec.Exec(sql, env.DB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelUnion sweeps worker counts for the largest
// workload reformulation (Q9, 300 arms), through the parallel union
// operator.
func BenchmarkAblationParallelUnion(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	u := ref.MustReformulate(lubm.Queries()[8])
	c := compileNative(b, env, plan.FromUCQ(u))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainNative(c, workers)
			}
		})
	}
}
