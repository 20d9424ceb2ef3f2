package cover

import (
	"repro/internal/query"
	"repro/internal/reformulate"
)

// ReformulateJUCQ builds the cover-based reformulation of the cover's
// query (Definition 3, generalized per Section 5.2): each fragment
// query is reformulated into a UCQ and the UCQs are joined. By Theorems
// 1 and 3, when the cover is in Lq or Gq the result is a FOL
// reformulation of the query w.r.t. the TBox behind r.
func (c Cover) ReformulateJUCQ(r *reformulate.Reformulator) (query.JUCQ, error) {
	return c.ReformulateJUCQWith(r.Reformulate)
}

// ReformulateJUCQWith is ReformulateJUCQ with the fragment queries'
// reformulation supplied by the caller, called once per fragment in
// fragment order (cover search serves them from its fragment table).
func (c Cover) ReformulateJUCQWith(reform func(query.CQ) (query.UCQ, error)) (query.JUCQ, error) {
	j := query.JUCQ{Name: orName(c.Q.Name), Head: c.Q.Head}
	for i := range c.Frags {
		fq := c.FragmentQuery(i)
		u, err := reform(fq)
		if err != nil {
			return query.JUCQ{}, err
		}
		u.Name = fq.Name
		j.Subs = append(j.Subs, u)
	}
	return j, nil
}

// ReformulateJUSCQ is the JUSCQ variant: fragment UCQs are factorized
// into USCQs (Section 2.2, [33]).
func (c Cover) ReformulateJUSCQ(r *reformulate.Reformulator) (query.JUSCQ, error) {
	j := query.JUSCQ{Name: orName(c.Q.Name), Head: c.Q.Head}
	for i := range c.Frags {
		fq := c.FragmentQuery(i)
		u, err := r.Reformulate(fq)
		if err != nil {
			return query.JUSCQ{}, err
		}
		s := query.FactorizeUCQ(u)
		s.Name = fq.Name
		j.Subs = append(j.Subs, s)
	}
	return j, nil
}

// ExpandJUCQ flattens a JUCQ into the equivalent UCQ by distributing
// joins over unions (used by tests as a correctness oracle; never used
// for evaluation — the whole point of the paper is not to do this).
func ExpandJUCQ(j query.JUCQ) query.UCQ {
	partials := []query.CQ{{Name: j.Name, Head: j.Head}}
	for _, sub := range j.Subs {
		var next []query.CQ
		for _, p := range partials {
			for _, d := range sub.Disjuncts {
				atoms := make([]query.Atom, len(p.Atoms), len(p.Atoms)+len(d.Atoms))
				copy(atoms, p.Atoms)
				atoms = append(atoms, d.Atoms...)
				next = append(next, query.CQ{Name: j.Name, Head: j.Head, Atoms: atoms})
			}
		}
		partials = next
	}
	for i := range partials {
		partials[i] = partials[i].DedupAtoms()
	}
	return query.UCQ{Name: j.Name, Disjuncts: partials}
}
