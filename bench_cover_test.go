// Cover-execution benchmarks: the streaming hash-join pipeline against
// the materialize-every-fragment fold on multi-fragment covers
// (BenchmarkCoverExec), and the answer cache against the full
// reformulate-search-plan pipeline on repeated queries
// (BenchmarkCoverCache). CI runs every root benchmark once per push
// (-bench . -benchtime 1x); cmd/benchcover emits the same series as
// BENCH_cover.json.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/shard"
)

// coverBenchQueries picks the Q3/Q9-style workload queries whose root
// covers are genuinely multi-fragment.
func coverBenchQueries() []query.CQ {
	qs := lubm.Queries()
	return []query.CQ{qs[2], qs[8]} // Q3, Q9
}

// BenchmarkCoverExec compares materialized and streaming execution of
// multi-fragment root covers, the streaming side at 1/2/4/8 workers
// (clamped to GOMAXPROCS on small machines). Run with -benchmem for the
// bytes/op series.
func BenchmarkCoverExec(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, q := range coverBenchQueries() {
		c := cover.RootCover(q, env.TBox)
		j, err := c.ReformulateJUCQ(ref)
		if err != nil {
			b.Fatal(err)
		}
		jp := engine.PlanJUCQ(j, env.DB, env.Profile)
		b.Run(q.Name+"/materialized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.ExecJUCQMaterialized(jp, env.DB)
			}
		})
		compiled := compileNative(b, env, plan.FromJUCQ(j))
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/streaming-w%d", q.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				op, _ := compiled.Tree(workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					engine.Drain(op)
				}
			})
		}
	}
}

// BenchmarkCoverShard compares the native streaming backend (serial
// baseline) against the shard backend at 1/2/4/8 shards on the same
// workload plans. Partitioning happens once per shard count, outside
// the timed loop — the series measures steady-state execution, the
// regime a long-lived server runs in. On a single-core machine the
// sharded series degenerates to the partition-scan overhead; see
// BENCH_shard.json for the recorded GOMAXPROCS.
func BenchmarkCoverShard(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, q := range coverBenchQueries() {
		c := cover.RootCover(q, env.TBox)
		j, err := c.ReformulateJUCQ(ref)
		if err != nil {
			b.Fatal(err)
		}
		ir := plan.Rewrite(plan.FromJUCQ(j))
		b.Run(q.Name+"/native", func(b *testing.B) {
			b.ReportAllocs()
			exec, err := engine.NewBackend(env.DB, env.Profile).Compile(ir)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shard-n%d", q.Name, shards), func(b *testing.B) {
				b.ReportAllocs()
				sb, err := shard.New(env.DB, env.Profile, shards)
				if err != nil {
					b.Fatal(err)
				}
				exec, err := sb.Compile(ir)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCoverCache measures what the answer cache eliminates: the
// same query answered repeatedly with the plan cache on (search,
// reformulation, and planning amortized to one miss) versus off (the
// full pipeline every time).
func BenchmarkCoverCache(b *testing.B) {
	env, _, _ := benchEnvs()
	q := lubm.Queries()[8] // Q9
	for _, mode := range []string{"cached", "uncached"} {
		b.Run("Q9/gdl-ext/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			a := core.New(env.TBox, env.DB, env.Profile)
			if mode == "uncached" {
				a.Cache = nil
				a.SearchOpts.Memo = nil
			}
			if _, err := a.Answer(q, core.StrategyGDLExt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Answer(q, core.StrategyGDLExt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
