package reformulate

import "repro/internal/query"

// ContainedUnderTBox decides containment modulo the ontology:
// q1 ⊑_T q2 holds when every certain answer of q1 is a certain answer
// of q2 over every T-consistent ABox. By FOL-reducibility this reduces
// to plain UCQ containment of the reformulations, and containment of a
// CQ in a union of CQs holds iff it is contained in one of the
// disjuncts (Sagiv–Yannakakis).
//
// With negative constraints in the TBox the test is sound but may be
// incomplete: a disjunct whose frozen body is T-inconsistent can never
// produce answers, so it could be ignored; we keep it, erring toward
// "not contained".
func ContainedUnderTBox(q1, q2 query.CQ, r *Reformulator) (bool, error) {
	u1, err := r.Reformulate(q1)
	if err != nil {
		return false, err
	}
	u2, err := r.Reformulate(q2)
	if err != nil {
		return false, err
	}
	for _, d1 := range u1.Disjuncts {
		found := false
		for _, d2 := range u2.Disjuncts {
			if query.ContainedIn(d1, d2) {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	return true, nil
}

// EquivalentUnderTBox reports mutual containment modulo the ontology.
func EquivalentUnderTBox(q1, q2 query.CQ, r *Reformulator) (bool, error) {
	a, err := ContainedUnderTBox(q1, q2, r)
	if err != nil || !a {
		return false, err
	}
	return ContainedUnderTBox(q2, q1, r)
}

// ReformulateMinimal returns the minimal UCQ reformulation (§2.3 of the
// paper): the PerfectRef output with containment-redundant disjuncts
// removed. Results are memoized separately from Reformulate.
func (r *Reformulator) ReformulateMinimal(q query.CQ) (query.UCQ, error) {
	key := "min//" + Key(q)
	if u, ok := r.memoGet(key); ok {
		return u, nil
	}
	u, err := r.Reformulate(q)
	if err != nil {
		return query.UCQ{}, err
	}
	m := u.Minimize()
	r.memoPut(key, m)
	return m, nil
}
