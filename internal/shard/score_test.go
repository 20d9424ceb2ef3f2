package shard

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
)

// recordingBackend hands cover search the shard backend's own scorer
// and keeps every cover the search scores, assembled as the whole tree
// the scorer stands for.
type recordingBackend struct {
	*Backend
	covers []*plan.Node
	scores []plan.Estimate
}

func (r *recordingBackend) NewCoverScorer() plan.CoverScorer {
	return &recordingScorer{r: r, inner: r.Backend.NewCoverScorer()}
}

type recordingScorer struct {
	r     *recordingBackend
	inner plan.CoverScorer
}

func (s *recordingScorer) EstimateCover(name string, head []query.Term, frags []*plan.Node) plan.Estimate {
	e := s.inner.EstimateCover(name, head, frags)
	s.r.covers = append(s.r.covers, plan.CoverJoin(name, head, frags))
	s.r.scores = append(s.r.scores, e)
	return e
}

// sameEstimate compares estimates bit for bit (+Inf equals +Inf).
func sameEstimate(a, b plan.Estimate) bool {
	return math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		math.Float64bits(a.Card) == math.Float64bits(b.Card)
}

// TestEstimateMatchesCompiled checks, for every cover GDL scores on the
// LUBM∃ workload (one university, Q1–Q13 unbound and bound) at 2 and 7
// shards, that the fragment-level score, the whole-tree Estimate and
// the estimate frozen by Compile agree exactly — so the cost the search
// ranks covers by is the one the executed plan reports, on the
// co-partitioned and the exchange path alike.
func TestEstimateMatchesCompiled(t *testing.T) {
	tb := lubm.TBox()
	ab := lubm.GenerateABox(lubm.Config{Universities: 1, Seed: 1})
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(ab)
	db.Finalize()
	qs := lubm.BoundQueries(ab)
	ref := reformulate.New(tb)
	for _, n := range []int{2, 7} {
		sb, err := New(db, engine.ProfilePostgres(), n)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingBackend{Backend: sb}
		est := &search.BackendEstimator{Backend: rec}
		for _, q := range qs {
			if r := search.GDL(q, tb, ref, est, search.Options{}); r.Err != nil {
				t.Fatalf("%d shards %s: %v", n, q.Name, r.Err)
			}
		}
		exchanges := 0
		for i, ir := range rec.covers {
			whole := sb.Estimate(ir)
			if !sameEstimate(rec.scores[i], whole) {
				t.Errorf("%d shards %s: fragment-level %+v, whole-tree %+v", n, ir, rec.scores[i], whole)
			}
			if math.IsInf(whole.Cost, 1) {
				continue // an invalid cover: Compile rejects it
			}
			ex, err := sb.Compile(ir)
			if err != nil {
				t.Fatalf("%d shards %s: compile: %v", n, ir, err)
			}
			if _, ok := ex.(*exchangeExec); ok {
				exchanges++
			}
			if got := ex.Estimate(); !sameEstimate(got, whole) {
				t.Errorf("%d shards %s: Estimate %+v, compiled %+v", n, ir, whole, got)
			}
		}
		if len(rec.covers) == 0 || exchanges == 0 {
			t.Fatalf("%d shards: %d covers, %d on the exchange path; want both paths exercised", n, len(rec.covers), exchanges)
		}
		t.Logf("%d shards: %d covers, %d on the exchange path", n, len(rec.covers), exchanges)
	}
}

// TestCoverScorerEdges checks the scorer against the whole-tree
// Estimate where it must not shortcut: covers that fail the cover-join
// key rule or bind no head variable, fragments that fail validation or
// are not a single fragment on their own (an Exchange wrapper), and
// single fragments — plus the differential fixtures, all through one
// scorer so its per-fragment tables are shared.
func TestCoverScorerEdges(t *testing.T) {
	db := loadDB(t, testABox)
	sb, err := New(db, engine.ProfilePostgres(), 3)
	if err != nil {
		t.Fatal(err)
	}
	head := func(s string) []query.Term { return query.MustParseCQ(s).Head }
	frag := func(cqs ...string) *plan.Node { return plan.Rewrite(plan.FromUCQ(ucq(cqs...))) }
	works, company := frag("q1(x, y) <- worksFor(x, y)"), frag("q2(y) <- Company(y)")
	type cover struct {
		name    string
		head    []query.Term
		frags   []*plan.Node
		invalid bool
	}
	covers := []cover{
		{"shuffle", head("q(x, y) <- worksFor(x, y)"), []*plan.Node{works, company}, false},
		{"single", head("q(x, y) <- worksFor(x, y)"), []*plan.Node{works}, false},
		{"aligned", head("q(x) <- Employee(x)"), []*plan.Node{
			frag("q1(x) <- Employee(x)", "q1(x) <- Manager(x)"), frag("q2(x) <- worksFor(x, y)")}, false},
		// y is in q1's head but only in q2's body: not a valid cover join.
		{"key-rule", head("q(x) <- worksFor(x, y)"), []*plan.Node{works, frag("q2(x) <- worksFor(x, y)")}, true},
		// z is bound by no fragment head.
		{"unbound-head", head("q(z) <- Company(z)"), []*plan.Node{works, company}, true},
		{"invalid-fragment", head("q(x, y) <- worksFor(x, y)"), []*plan.Node{
			works, {Op: plan.OpDistinct, Inputs: []*plan.Node{{Op: plan.OpUnion}}}}, true},
		{"exchange-wrapped", head("q(x, y) <- worksFor(x, y)"), []*plan.Node{
			{Op: plan.OpExchange, Key: "y", Inputs: []*plan.Node{works}}, company}, false},
	}
	for _, n := range append(diffQueries(), exchangeDiffQueries()...) {
		n = plan.Rewrite(n)
		c := cover{name: n.String(), frags: []*plan.Node{n}}
		if proj, _ := coverParts(n); proj != nil && plan.CoverFragments(proj) != nil {
			c.head, c.frags = proj.Head, plan.CoverFragments(proj)
		}
		covers = append(covers, c)
	}
	sc := sb.NewCoverScorer()
	for _, c := range covers {
		got := sc.EstimateCover("q", c.head, c.frags)
		if want := sb.Estimate(plan.CoverJoin("q", c.head, c.frags)); !sameEstimate(got, want) {
			t.Errorf("%s: scorer %+v, Estimate %+v", c.name, got, want)
		}
		if inf := math.IsInf(got.Cost, 1); inf != c.invalid {
			t.Errorf("%s: cost %v, want +Inf only for an invalid cover", c.name, got.Cost)
		}
	}
}
