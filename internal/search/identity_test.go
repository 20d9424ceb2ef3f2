package search

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/covers.golden from the current search")

// identityEDLCap bounds EDL's enumeration on the workload queries: the
// largest have tens of thousands of generalized covers.
const identityEDLCap = 30

// identityQueries returns Q1–Q13, each unbound and with one variable
// bound to an individual of the data: the first non-head variable,
// bound to the median (in sorted order) of the individuals at its
// position in the facts of its first atom.
func identityQueries(ab *dllite.ABox) []query.CQ {
	var out []query.CQ
	for _, q := range lubm.Queries() {
		out = append(out, q)
		head := q.HeadVarSet()
		v, pred, pos := "", "", 0
		for _, a := range q.Atoms {
			for i, t := range a.Args {
				if v == "" && t.IsVar() && !head[t.Name] {
					v, pred, pos = t.Name, a.Pred, i
				}
			}
		}
		set := map[string]bool{}
		for _, as := range ab.Assertions {
			if as.Pred != pred {
				continue
			}
			if pos == 0 {
				set[as.S] = true
			} else {
				set[as.O] = true
			}
		}
		vals := make([]string, 0, len(set))
		for c := range set {
			vals = append(vals, c)
		}
		sort.Strings(vals)
		if len(vals) == 0 {
			continue
		}
		b := query.CQ{Name: q.Name + "b", Head: q.Head}
		for _, a := range q.Atoms {
			args := make([]query.Term, len(a.Args))
			for i, t := range a.Args {
				if t.IsVar() && t.Name == v {
					t = query.Cst(vals[len(vals)/2])
				}
				args[i] = t
			}
			b.Atoms = append(b.Atoms, query.Atom{Pred: a.Pred, Args: args})
		}
		out = append(out, b)
	}
	return out
}

// identityConfig is one estimator over one database layout.
type identityConfig struct {
	name string
	est  Estimator
}

// identitySetup builds LUBM∃ at one university in both layouts and the
// ext and RDBMS (Postgres, DB2) estimators over each.
func identitySetup(t *testing.T) (*dllite.TBox, []query.CQ, []identityConfig) {
	t.Helper()
	tb := lubm.TBox()
	ab := lubm.GenerateABox(lubm.Config{Universities: 1, Seed: 1})
	var cfgs []identityConfig
	for _, layout := range []engine.Layout{engine.LayoutSimple, engine.LayoutRDF} {
		db := engine.NewDB(layout)
		db.LoadABox(ab)
		db.Finalize()
		cfgs = append(cfgs,
			identityConfig{fmt.Sprintf("ext/%v", layout), &ExtEstimator{Model: cost.NewModel(db)}},
			identityConfig{fmt.Sprintf("postgres/%v", layout), &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()}},
			identityConfig{fmt.Sprintf("db2/%v", layout), &RDBMSEstimator{DB: db, Profile: engine.ProfileDB2()}},
		)
	}
	return tb, identityQueries(ab), cfgs
}

// TestCoverIdentity checks the cover search on the workload, with and
// without a bound constant, for the ext and RDBMS estimators over both
// layouts:
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
