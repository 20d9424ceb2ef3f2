package search

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/covers.golden from the current search")

// identityEDLCap bounds EDL's enumeration on the workload queries: the
// largest have tens of thousands of generalized covers.
const identityEDLCap = 30

// identityConfig is one estimator over one database layout.
type identityConfig struct {
	name string
	est  Estimator
}

// identitySetup builds LUBM∃ at one university in both layouts, the
// ext and RDBMS (Postgres, DB2) estimators over each, and the shard
// backend's estimator at 2 and 3 shards over the simple layout.
func identitySetup(t *testing.T) (*dllite.TBox, []query.CQ, []identityConfig) {
	t.Helper()
	tb := lubm.TBox()
	ab := lubm.GenerateABox(lubm.Config{Universities: 1, Seed: 1})
	var cfgs []identityConfig
	var simple *engine.DB
	for _, layout := range []engine.Layout{engine.LayoutSimple, engine.LayoutRDF} {
		db := engine.NewDB(layout)
		db.LoadABox(ab)
		db.Finalize()
		if layout == engine.LayoutSimple {
			simple = db
		}
		cfgs = append(cfgs,
			identityConfig{fmt.Sprintf("ext/%v", layout), &ExtEstimator{Model: cost.NewModel(db)}},
			identityConfig{fmt.Sprintf("postgres/%v", layout), &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()}},
			identityConfig{fmt.Sprintf("db2/%v", layout), &RDBMSEstimator{DB: db, Profile: engine.ProfileDB2()}},
		)
	}
	// The shard backend over the simple layout, scored through its own
	// Estimate (partitioning requires the simple layout).
	for _, n := range []int{2, 3} {
		sb, err := shard.New(simple, engine.ProfilePostgres(), n)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, identityConfig{fmt.Sprintf("shard%d/simple", n), &BackendEstimator{Backend: sb}})
	}
	return tb, lubm.BoundQueries(ab), cfgs
}

// TestCoverIdentity checks the cover search on the workload, with and
// without a bound constant, for the ext and RDBMS estimators over both
// layouts and the shard backend's estimator at 2 and 3 shards:
//
//   - every cover GDL and EDL score gets exactly the cost the estimator
//     gives its lowered, rewritten plan tree — the fragment-level
//     combine is the whole-tree formula, not an approximation of it;
//   - GDL and EDL pick the covers, at the costs (full float precision),
//     recorded in testdata/covers.golden. Run with -update to re-record
//     after a deliberate change to the cost models or the search.
func TestCoverIdentity(t *testing.T) {
	tb, qs, cfgs := identitySetup(t)
	ref := reformulate.New(tb)
	var b strings.Builder
	checked := 0
	for _, cfg := range cfgs {
		memo := NewMemo()
		for _, q := range qs {
			gdl := GDL(q, tb, ref, cfg.est, Options{Memo: memo})
			edl := EDL(q, tb, ref, cfg.est, Options{Memo: memo, MaxCovers: identityEDLCap})
			for _, r := range []struct {
				algo string
				res  Result
			}{{"gdl", gdl}, {"edl", edl}} {
				if r.res.Err != nil {
					t.Fatalf("%s %s %s: %v", cfg.name, q.Name, r.algo, r.res.Err)
				}
				fmt.Fprintf(&b, "%s %s %s %s %s\n", cfg.name, q.Name, r.algo,
					r.res.Cover.Key(), strconv.FormatFloat(r.res.Cost, 'g', -1, 64))
			}
		}
		for k, e := range memo.m {
			whole := cfg.est.Estimate(plan.Rewrite(plan.FromJUCQ(e.jucq)))
			if e.cost != whole {
				t.Errorf("%s cover %s: search cost %v, whole-tree estimate %v", cfg.name, k.cover, e.cost, whole)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no covers scored")
	}
	path := filepath.Join("testdata", "covers.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("got %d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("golden line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
