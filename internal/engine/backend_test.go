package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
)

// compileNative compiles n on the native backend.
func compileNative(t testing.TB, db *DB, prof *Profile, n *plan.Node) *Compiled {
	t.Helper()
	c, err := NewBackend(db, prof).CompilePlan(n)
	if err != nil {
		t.Fatalf("compile %s: %v", n, err)
	}
	return c
}

// drainPlan compiles n and drains one fresh operator tree of it.
func drainPlan(t testing.TB, db *DB, prof *Profile, n *plan.Node, workers int) *Relation {
	t.Helper()
	op, _ := compileNative(t, db, prof, n).Tree(workers)
	return Drain(op)
}

// answer runs n through the native backend and returns its tuples.
func answer(t testing.TB, db *DB, prof *Profile, n *plan.Node) [][]string {
	t.Helper()
	rr, err := compileNative(t, db, prof, n).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Tuples
}

// answerCQ answers q with set semantics, as the one-arm UCQ.
func answerCQ(t testing.TB, db *DB, prof *Profile, q query.CQ) [][]string {
	t.Helper()
	return answer(t, db, prof, plan.FromUCQ(query.UCQ{Name: q.Name, Disjuncts: []query.CQ{q}}))
}

// backendUCQ is a small multi-arm reformulation over the sample data.
func backendUCQ(t *testing.T) query.UCQ {
	t.Helper()
	return query.UCQ{Name: "u", Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)"),
		query.MustParseCQ("q(x) <- supervisedBy(x, y), Researcher(y)"),
	}}
}

// TestBackendMatchesPlannedExec: compiling through the plan IR returns
// exactly the tuples and estimate of the direct planned execution.
func TestBackendMatchesPlannedExec(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	u := backendUCQ(t)

	exec, err := b.Compile(plan.FromUCQ(u))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	p := PlanUCQ(u, db, prof)
	want := ExecUCQMaterialized(p, db).Decode(db.Dict)
	if !reflect.DeepEqual(rr.Tuples, want) {
		t.Errorf("tuples = %v, want %v", rr.Tuples, want)
	}
	if est := exec.Estimate(); est.Cost != p.EstCost || est.Card != p.EstCard {
		t.Errorf("estimate = %+v, want cost %.1f card %.1f", est, p.EstCost, p.EstCard)
	}
}

// TestBackendJUCQMatchesPlannedExec: the two-fragment cover shape runs
// through the hash join and still matches the direct execution.
func TestBackendJUCQMatchesPlannedExec(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	j := query.JUCQ{Name: "j", Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{
		{Name: "f1", Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- PhDStudent(x)")}},
		{Name: "f2", Disjuncts: []query.CQ{
			query.MustParseCQ("f2(x) <- worksWith(y, x)"),
			query.MustParseCQ("f2(x) <- supervisedBy(x, y)"),
		}},
	}}
	exec, err := b.Compile(plan.FromJUCQ(j))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	p := PlanJUCQ(j, db, prof)
	want := ExecJUCQMaterialized(p, db).Decode(db.Dict)
	if !reflect.DeepEqual(rr.Tuples, want) {
		t.Errorf("tuples = %v, want %v", rr.Tuples, want)
	}
	if est := exec.Estimate(); est.Cost != p.EstCost {
		t.Errorf("estimate cost = %.1f, want %.1f", est.Cost, p.EstCost)
	}
}

// TestBackendExplainActuals: after a run, the explain tree carries the
// observed row counters — the root's actual equals the answer count,
// every access leaf is annotated, and estimates come from the plan.
func TestBackendExplainActuals(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	u := backendUCQ(t)
	exec, err := b.Compile(plan.FromUCQ(u))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	ex := rr.Explain
	if ex == nil || ex.Root == nil {
		t.Fatal("no explain")
	}
	if ex.Backend != "native" {
		t.Errorf("backend = %s", ex.Backend)
	}
	if ex.Root.ActualRows != int64(len(rr.Tuples)) {
		t.Errorf("root actual = %d, want %d", ex.Root.ActualRows, len(rr.Tuples))
	}
	if ex.Root.EstRows < 0 || ex.EstCost <= 0 {
		t.Errorf("root estimate missing: est=%.1f cost=%.1f", ex.Root.EstRows, ex.EstCost)
	}
	var accesses, annotated int
	var walk func(*plan.ExplainNode)
	walk = func(e *plan.ExplainNode) {
		if e.Op == "access" {
			accesses++
			if e.ActualRows >= 0 {
				annotated++
			}
			if e.EstRows < 0 {
				t.Errorf("access %q has no estimate", e.Detail)
			}
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(ex.Root)
	if accesses == 0 || annotated != accesses {
		t.Errorf("%d/%d access nodes annotated with actuals", annotated, accesses)
	}
}

// TestBackendUSCQ: the factorized dialect compiles and matches its
// planned execution.
func TestBackendUSCQ(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	u := query.FactorizeUCQ(backendUCQ(t))
	exec, err := b.Compile(plan.FromUSCQ(u))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := ExecUSCQMaterialized(PlanUSCQ(u, db, prof), db).Decode(db.Dict)
	if !reflect.DeepEqual(rr.Tuples, want) {
		t.Errorf("tuples = %v, want %v", rr.Tuples, want)
	}
}

// TestBackendEstimateMalformed: a malformed tree estimates to +Inf and
// fails Compile with an error.
func TestBackendEstimateMalformed(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	b := NewBackend(db, ProfilePostgres())
	bad := &plan.Node{Op: plan.OpUnion}
	if _, err := b.Compile(bad); err == nil {
		t.Error("Compile accepted a malformed tree")
	}
	if est := b.Estimate(bad); !math.IsInf(est.Cost, 1) {
		t.Errorf("estimate of malformed tree = %+v, want +Inf cost", est)
	}
}

// TestBackendExplainPushDistinct: under the push-Distinct rewrite
// (constant-tagged arms), the estimate is the UCQ planner's and EXPLAIN
// still carries an estimate and an actual row count for every
// projection, access and per-arm Distinct.
func TestBackendExplainPushDistinct(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox+"Tag(a)\nTag(b)\n") // the tags resolve
	tagged := func(concept, tag string) query.CQ {
		x := query.Var("x")
		return query.CQ{Name: "q", Head: []query.Term{x, query.Cst(tag)},
			Atoms: []query.Atom{query.ConceptAtom(concept, x)}}
	}
	u := query.UCQ{Name: "u", Disjuncts: []query.CQ{tagged("PhDStudent", "a"), tagged("Researcher", "b")}}
	ir := plan.Rewrite(plan.FromUCQ(u))
	if arm := ir.Inputs[0].Inputs[0]; arm.Op != plan.OpDistinct {
		t.Fatalf("rewrite did not push Distinct below the union: %s", ir)
	}
	c := compileNative(t, db, ProfilePostgres(), ir)
	// The per-arm dedup changes no estimate: the union is still priced
	// as the UCQ it extracts to.
	p := PlanUCQ(u, db, ProfilePostgres())
	if est := c.Estimate(); est.Cost != p.EstCost || est.Card != p.EstCard {
		t.Errorf("estimate = %+v, want cost %v card %v", est, p.EstCost, p.EstCard)
	}
	rr, err := c.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Tuples) != 3 {
		t.Fatalf("tuples = %v, want Damian/a and Ioana, Francois/b", rr.Tuples)
	}
	var walk func(e *plan.ExplainNode, depth int)
	checked := 0
	walk = func(e *plan.ExplainNode, depth int) {
		if e.Op == "project" || e.Op == "access" || (e.Op == "distinct" && depth > 0) {
			checked++
			if e.EstRows < 0 || e.ActualRows < 0 {
				t.Errorf("%s %s: est=%v actual=%d", e.Op, e.Detail, e.EstRows, e.ActualRows)
			}
		}
		for _, c := range e.Children {
			walk(c, depth+1)
		}
	}
	walk(rr.Explain.Root, 0)
	if checked != 6 { // two arms × (distinct, project, access)
		t.Errorf("checked %d nodes, want 6:\n%s", checked, rr.Explain.Text())
	}
}
