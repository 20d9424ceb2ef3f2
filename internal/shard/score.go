package shard

// Fragment-level cover scoring. Cover search scores many candidate
// covers that share fragments; Estimate on each assembled cover would
// validate and extract the whole tree, re-run the alignment analyses
// on it and re-plan every fragment on every shard view. The scorer
// does each per-fragment step once per search and keeps the results
// keyed by fragment subtree:
//
//   - once per fragment: validation, the alignment summary (variables,
//     head, distinct first-argument occurrences; the cover-join key
//     rule reads its variable sets too) and the native estimate on the
//     base database;
//   - once per fragment and set of partitioned relations it reads: the
//     native estimate on each shard view.
//
// A candidate then costs the alignment and exchange analyses over the
// cached summaries and the profile's cover combine. The figure equals
// Estimate on the assembled cover exactly: the whole-tree analyses
// read the same summaries in the same order (Extract returns the
// fragments' own queries), the native estimate of a cover is the
// profile's combine of its fragments' estimates, and a native estimate
// reads only the statistics of the relations it touches plus the
// shared dictionary's size, so a fragment's estimate on a view depends
// only on which of its own relations the view partitions.

import (
	"math"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// coverScorer is one search's fragment table. It is not safe for
// concurrent use.
type coverScorer struct {
	b     *Backend
	base  *engine.Backend
	st    *engine.Statistics
	frags map[*plan.Node]*scoredFrag
}

// scoredFrag is what scoring needs of one fragment subtree.
type scoredFrag struct {
	ok  bool          // validated, compiled and extracted to one fragment
	sum fragment      // alignment summary
	est plan.Estimate // native estimate on the base database
	// shards holds the per-shard-view estimates, keyed by relSetKey of
	// the partitioned relations the fragment reads.
	shards map[string][]plan.Estimate
}

// NewCoverScorer returns a scorer for one cover search: its
// EstimateCover(name, head, frags) equals
// Estimate(plan.CoverJoin(name, head, frags)) bit for bit, and keeps
// per-fragment work keyed by subtree identity, so a search hands it
// the same subtree for every candidate sharing a fragment. Drop it
// with the search.
func (b *Backend) NewCoverScorer() plan.CoverScorer {
	return &coverScorer{
		b:     b,
		base:  engine.NewBackend(b.part.Base, b.prof),
		st:    b.part.Base.Stats(),
		frags: make(map[*plan.Node]*scoredFrag),
	}
}

// fragment returns the subtree's entry, analyzing it on first sight.
func (s *coverScorer) fragment(n *plan.Node) *scoredFrag {
	if f, ok := s.frags[n]; ok {
		return f
	}
	f := &scoredFrag{}
	s.frags[n] = f
	if plan.Validate(n) != nil {
		return f
	}
	lo, err := plan.Extract(n)
	if err != nil || (lo.Kind != plan.KindUCQ && lo.Kind != plan.KindUSCQ) {
		return f
	}
	if f.est = s.base.EstimateValidated(n); math.IsInf(f.est.Cost, 1) {
		return f // does not compile
	}
	f.ok = true
	f.sum = collect(lo)[0]
	f.shards = map[string][]plan.Estimate{}
	return f
}

// onShards returns the fragment's estimate on each of views, the shard
// views partitioning part.
func (s *coverScorer) onShards(n *plan.Node, f *scoredFrag, part map[string]bool, views []*engine.DB) []plan.Estimate {
	touched := map[string]bool{}
	for _, o := range f.sum.occs {
		if part[o.pred] {
			touched[o.pred] = true
		}
	}
	key := relSetKey(touched)
	if ests, ok := f.shards[key]; ok {
		return ests
	}
	ests := make([]plan.Estimate, len(views))
	for i, v := range views {
		ests[i] = engine.NewBackend(v, s.b.prof).EstimateValidated(n)
	}
	f.shards[key] = ests
	return ests
}

// EstimateCover scores the cover of the given fragment subtrees. A
// subtree the scorer cannot summarize (it is not one fragment, or
// fails validation or compilation) sends the candidate to the
// whole-tree Estimate, which prices it as the definition does.
func (s *coverScorer) EstimateCover(name string, head []query.Term, trees []*plan.Node) plan.Estimate {
	frags := make([]*scoredFrag, len(trees))
	sums := make([]fragment, len(trees))
	for i, n := range trees {
		f := s.fragment(n)
		if !f.ok {
			return s.b.Estimate(plan.CoverJoin(name, head, trees))
		}
		frags[i], sums[i] = f, f.sum
	}
	if len(frags) > 1 && !coverValid(head, frags) {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	combine := func(ests []plan.Estimate) plan.Estimate {
		if len(ests) == 1 {
			return ests[0]
		}
		return s.b.prof.CoverEstimate(ests)
	}
	an := analyze(sums, s.st)
	if ex := s.b.pickExchange(an, sums); ex != nil {
		return s.b.exchangeEstimate(ex, baseEstimates(frags))
	}
	if !an.aligned() {
		return combine(baseEstimates(frags))
	}
	views := s.b.viewsByRels(an.partitioned)
	perFrag := make([][]plan.Estimate, len(frags))
	for j, f := range frags {
		perFrag[j] = s.onShards(trees[j], f, an.partitioned, views)
	}
	var est plan.Estimate
	ests := make([]plan.Estimate, len(frags))
	for i := range views {
		for j := range frags {
			ests[j] = perFrag[j][i]
		}
		e := combine(ests)
		est.Cost += e.Cost
		est.Card += e.Card
	}
	return est
}

// baseEstimates lists the fragments' base-database estimates.
func baseEstimates(frags []*scoredFrag) []plan.Estimate {
	ests := make([]plan.Estimate, len(frags))
	for j, f := range frags {
		ests[j] = f.est
	}
	return ests
}

// coverValid applies the checks plan.Validate adds on top of the
// fragments' own when they are joined under a cover projection: the
// fragment-join key rule, and every head variable bound by some
// fragment. The summaries' head and variable sets are the ones
// Validate reads off the subtrees: the first arm's head, and every
// access and head variable — a valid fragment binds each arm's head
// variables in that arm's accesses.
func coverValid(head []query.Term, frags []*scoredFrag) bool {
	heads := make([]map[string]bool, len(frags))
	vars := make([]map[string]bool, len(frags))
	for i, f := range frags {
		heads[i], vars[i] = f.sum.head, f.sum.vars
	}
	if plan.CheckCoverJoin(heads, vars) != nil {
		return false
	}
	for _, t := range head {
		if !t.IsVar() {
			continue
		}
		bound := false
		for _, h := range heads {
			bound = bound || h[t.Name]
		}
		if !bound {
			return false
		}
	}
	return true
}
