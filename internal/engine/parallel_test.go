package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dllite"
	"repro/internal/plan"
	"repro/internal/query"
)

// drainParallel compiles a UCQ with the parallel union operator and
// drains it.
func drainParallel(t *testing.T, u query.UCQ, db *DB, prof *Profile, workers int) *Relation {
	t.Helper()
	return drainPlan(t, db, prof, plan.FromUCQ(u), workers)
}

func TestParallelMatchesSequential(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	u := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x)"),
		query.MustParseCQ("q(x) <- Researcher(x)"),
		query.MustParseCQ("q(x) <- supervisedBy(x, y)"),
		query.MustParseCQ("q(x) <- worksWith(y, x)"),
	}}
	seq := drainParallel(t, u, db, ProfilePostgres(), 1)
	for _, workers := range []int{1, 2, 4, 16} {
		par := drainParallel(t, u, db, ProfilePostgres(), workers)
		if !sameSets(relToSet(par, db.Dict), relToSet(seq, db.Dict)) {
			t.Errorf("workers=%d: parallel result differs", workers)
		}
	}
}

// TestPropParallelEquivalence asserts, on randomized UCQs and data,
// that the parallel union operator computes exactly the sequential
// answer set (run under -race in CI).
func TestPropParallelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		db := NewDB(LayoutSimple)
		db.LoadABox(ab)
		var u query.UCQ
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			u.Disjuncts = append(u.Disjuncts, randQuery(r))
		}
		// All disjuncts must share head arity for a well-formed UCQ.
		for i := range u.Disjuncts {
			u.Disjuncts[i].Head = u.Disjuncts[i].Head[:1]
		}
		seq := drainParallel(t, u, db, ProfileDB2(), 1)
		par := drainParallel(t, u, db, ProfileDB2(), 4)
		return sameSets(relToSet(par, db.Dict), relToSet(seq, db.Dict))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestParallelSingleArmFallsBack(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	u := query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("q(x) <- Researcher(x)")}}
	if got := drainParallel(t, u, db, ProfilePostgres(), 8); len(got.Rows) != 2 {
		t.Errorf("single-arm parallel = %d rows", len(got.Rows))
	}
}

// TestParallelEarlyClose closes the parallel union before draining it;
// the workers must unblock and exit without deadlock or leak.
func TestParallelEarlyClose(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var ds []query.CQ
	for i := 0; i < 32; i++ {
		ds = append(ds, query.MustParseCQ("q(x) <- Researcher(x)"))
		ds = append(ds, query.MustParseCQ("q(x) <- supervisedBy(x, y)"))
	}
	arms := make([]Operator, len(ds))
	for i, d := range ds {
		arms[i] = cqPipeline(t, db, d)
	}
	op := NewUnionParallel(headSchema(ds[0].Head), arms, 4)
	op.Open()
	b := NewBatch(len(op.Schema()))
	op.Next(b) // take at most one batch, then abandon the rest
	op.Close()
}

// TestParallelFeedbackIsRaceFree drains a parallel union whose arms
// flush cardinality feedback into a shared profile on Close.
func TestParallelFeedbackIsRaceFree(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	prof.Feedback = NewCardFeedback()
	var ds []query.CQ
	for i := 0; i < 16; i++ {
		ds = append(ds, query.MustParseCQ("q(x) <- Researcher(x)"))
		ds = append(ds, query.MustParseCQ("q(x) <- supervisedBy(x, y)"))
	}
	rel := drainParallel(t, query.UCQ{Disjuncts: ds}, db, prof, 8)
	if len(rel.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rel.Rows))
	}
	if _, ok := prof.Feedback.Fanout("supervisedBy", AccessRoleScan); !ok {
		t.Error("parallel execution should have flushed feedback")
	}
}
