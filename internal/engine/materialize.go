package engine

// The original materialize-everything executor, kept as the reference
// path: it builds every intermediate result as [][]int64 and shares no
// code with the streaming operator pipeline (operator.go, compile.go),
// which is the production path. It serves as the differential-testing
// oracle and as the baseline the benchmarks compare allocations
// against.

import (
	"sort"

	"repro/internal/query"
)

// ExecCQMaterialized evaluates a planned CQ by materializing every
// intermediate, returning rows projected on the CQ head (duplicates
// preserved; callers apply Distinct).
func ExecCQMaterialized(plan CQPlan, db *DB) *Relation {
	blocks := make([][]query.Atom, len(plan.Steps))
	for i, s := range plan.Steps {
		blocks[i] = plan.Q.Atoms[s.Atom : s.Atom+1]
	}
	return execBlocksMaterialized(blocks, plan.Q.Head, db)
}

// execSCQMaterialized is the factorized analogue: each block's
// alternatives extend the current rows independently, in the planned
// block order, and their rows are concatenated.
func execSCQMaterialized(plan SCQPlan, db *DB) *Relation {
	blocks := make([][]query.Atom, len(plan.Order))
	for i, b := range plan.Order {
		blocks[i] = plan.S.Blocks[b]
	}
	return execBlocksMaterialized(blocks, plan.S.Head, db)
}

// execBlocksMaterialized joins the blocks in order, one materialized
// intermediate per block, and projects the rows on head.
func execBlocksMaterialized(blocks [][]query.Atom, head []query.Term, db *DB) *Relation {
	// Column layout: variables in order of first use across the plan.
	colOf := map[string]int{}
	var cols []string
	for _, block := range blocks {
		for _, a := range block {
			for _, t := range a.Args {
				if t.IsVar() {
					if _, ok := colOf[t.Name]; !ok {
						colOf[t.Name] = len(cols)
						cols = append(cols, t.Name)
					}
				}
			}
		}
	}
	rows := [][]int64{make([]int64, len(cols))}
	boundMask := make([]bool, len(cols))
	for _, block := range blocks {
		if len(block) == 1 {
			rows = execStep(block[0], rows, colOf, boundMask, db)
		} else {
			var next [][]int64
			for _, a := range block {
				next = append(next, execStep(a, rows, colOf, boundMask, db)...)
			}
			rows = next
		}
		for _, a := range block {
			for _, t := range a.Args {
				if t.IsVar() {
					boundMask[colOf[t.Name]] = true
				}
			}
		}
		if len(rows) == 0 {
			break
		}
	}
	// Project onto the head.
	out := &Relation{Schema: headSchema(head)}
	for _, row := range rows {
		pr := make([]int64, len(head))
		ok := true
		for i, h := range head {
			if h.Const {
				id, found := db.Dict.Lookup(h.Name)
				if !found {
					ok = false
					break
				}
				pr[i] = id
			} else {
				pr[i] = row[colOf[h.Name]]
			}
		}
		if ok {
			out.Rows = append(out.Rows, pr)
		}
	}
	return out
}

// execStep joins the current rows with one atom using index lookups.
func execStep(a query.Atom, rows [][]int64, colOf map[string]int, bound []bool, db *DB) [][]int64 {
	// resolve returns (value, isBound) of a term under a row.
	resolve := func(t query.Term, row []int64) (int64, bool, bool) {
		if t.Const {
			id, ok := db.Dict.Lookup(t.Name)
			return id, true, ok
		}
		c := colOf[t.Name]
		if bound[c] {
			return row[c], true, true
		}
		return 0, false, true
	}
	var out [][]int64
	emit := func(row []int64, t query.Term, v int64) []int64 {
		if t.Const {
			return row
		}
		c := colOf[t.Name]
		if bound[c] {
			return row
		}
		nr := make([]int64, len(row))
		copy(nr, row)
		nr[c] = v
		return nr
	}
	if a.Arity() == 1 {
		for _, row := range rows {
			v, isB, ok := resolve(a.Args[0], row)
			if !ok {
				continue
			}
			if isB {
				if db.ConceptContains(a.Pred, v) {
					out = append(out, row)
				}
				continue
			}
			for _, id := range db.ConceptMembers(a.Pred) {
				out = append(out, emit(row, a.Args[0], id))
			}
		}
		return out
	}
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	for _, row := range rows {
		s, sB, okS := resolve(a.Args[0], row)
		o, oB, okO := resolve(a.Args[1], row)
		if !okS || !okO {
			continue
		}
		switch {
		case sB && oB:
			if db.RoleContains(a.Pred, s, o) {
				out = append(out, row)
			}
		case sB && sameVar:
			if db.RoleContains(a.Pred, s, s) {
				out = append(out, row)
			}
		case sB:
			for _, v := range db.RoleObjects(a.Pred, s) {
				out = append(out, emit(row, a.Args[1], v))
			}
		case oB:
			for _, v := range db.RoleSubjects(a.Pred, o) {
				out = append(out, emit(row, a.Args[0], v))
			}
		default:
			if sameVar {
				db.RolePairs(a.Pred, func(ps, po int64) {
					if ps == po {
						out = append(out, emit(row, a.Args[0], ps))
					}
				})
			} else {
				db.RolePairs(a.Pred, func(ps, po int64) {
					nr := emit(row, a.Args[0], ps)
					nr = emit(nr, a.Args[1], po)
					out = append(out, nr)
				})
			}
		}
	}
	return out
}

// ExecUCQMaterialized evaluates a planned UCQ with DISTINCT through the
// materializing path.
func ExecUCQMaterialized(plan UCQPlan, db *DB) *Relation {
	out := &Relation{Schema: headSchema(plan.U.Head())}
	for i := range plan.Plans {
		r := ExecCQMaterialized(plan.Plans[i], db)
		out.Rows = append(out.Rows, r.Rows...)
	}
	out.Distinct()
	return out
}

// ExecUSCQMaterialized evaluates a planned USCQ with DISTINCT through
// the materializing path.
func ExecUSCQMaterialized(plan USCQPlan, db *DB) *Relation {
	out := &Relation{}
	for i := range plan.Plans {
		r := execSCQMaterialized(plan.Plans[i], db)
		if i == 0 { // the first arm's head names the union's columns
			out.Schema = r.Schema
		}
		out.Rows = append(out.Rows, r.Rows...)
	}
	out.Distinct()
	return out
}

// ExecJUCQMaterialized is the pre-streaming cover path: materialize
// each fragment with DISTINCT (the WITH clauses of Section 3), join
// smallest-first (plan estimates breaking ties), then project the
// overall head with DISTINCT.
func ExecJUCQMaterialized(plan JUCQPlan, db *DB) *Relation {
	frags := make([]*Relation, len(plan.Frags))
	ests := make([]float64, len(plan.Frags))
	for i := range plan.Frags {
		frags[i] = ExecUCQMaterialized(plan.Frags[i], db)
		ests[i] = plan.Frags[i].EstCard
	}
	return joinAndProject(frags, ests, plan.J.Head, db)
}

// ExecJUSCQMaterialized is ExecJUCQMaterialized over factorized USCQ
// fragments.
func ExecJUSCQMaterialized(plan JUSCQPlan, db *DB) *Relation {
	frags := make([]*Relation, len(plan.Frags))
	ests := make([]float64, len(plan.Frags))
	for i := range plan.Frags {
		frags[i] = ExecUSCQMaterialized(plan.Frags[i], db)
		ests[i] = plan.Frags[i].EstCard
	}
	return joinAndProject(frags, ests, plan.J.Head, db)
}

// HashJoin joins two materialized relations on their shared schema
// variables. Buckets key on the 64-bit hash of the join columns;
// matches are verified exactly.
func HashJoin(l, r *Relation) *Relation {
	rIdx := make(map[string]int, len(r.Schema))
	for i, v := range r.Schema {
		rIdx[v] = i
	}
	var common [][2]int
	inCommon := make([]bool, len(r.Schema))
	for i, v := range l.Schema {
		if j, ok := rIdx[v]; ok {
			common = append(common, [2]int{i, j})
			inCommon[j] = true
		}
	}
	schema := append([]string(nil), l.Schema...)
	var rExtra []int
	for j, v := range r.Schema {
		if !inCommon[j] {
			rExtra = append(rExtra, j)
			schema = append(schema, v)
		}
	}
	key := func(row []int64, side int) uint64 {
		h := uint64(0x9e3779b97f4a7c15)
		for _, c := range common {
			h = mix64(h ^ uint64(row[c[side]]))
		}
		return h
	}
	equalOn := func(lt, rt []int64) bool {
		for _, c := range common {
			if lt[c[0]] != rt[c[1]] {
				return false
			}
		}
		return true
	}
	buckets := make(map[uint64][]int, len(r.Rows))
	for i, rt := range r.Rows {
		h := key(rt, 1)
		buckets[h] = append(buckets[h], i)
	}
	out := &Relation{Schema: schema}
	for _, lt := range l.Rows {
		for _, ri := range buckets[key(lt, 0)] {
			rt := r.Rows[ri]
			if !equalOn(lt, rt) {
				continue
			}
			row := make([]int64, 0, len(schema))
			row = append(row, lt...)
			for _, j := range rExtra {
				row = append(row, rt[j])
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// joinAndProject is the tail of the WITH query of Section 3 over
// materialized fragments: they fold left-to-right ordered by
// materialized size, with the planner's estimated cardinalities
// breaking ties (so the smallest build side always joins first even
// when actual sizes coincide), and the overall head is projected with
// DISTINCT.
func joinAndProject(frags []*Relation, ests []float64, head []query.Term, db *DB) *Relation {
	if len(frags) == 0 {
		return &Relation{Schema: headSchema(head)}
	}
	order := make([]int, len(frags))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if len(frags[i].Rows) != len(frags[j].Rows) {
			return len(frags[i].Rows) < len(frags[j].Rows)
		}
		return ests[i] < ests[j]
	})
	cur := frags[order[0]]
	for _, fi := range order[1:] {
		cur = HashJoin(cur, frags[fi])
		if len(cur.Rows) == 0 {
			break
		}
	}
	return projectRelation(cur, head, db)
}

func projectRelation(r *Relation, head []query.Term, db *DB) *Relation {
	idx := make([]int, len(head))
	for i, h := range head {
		idx[i] = -1
		for j, v := range r.Schema {
			if v == h.Name {
				idx[i] = j
				break
			}
		}
	}
	out := &Relation{Schema: headSchema(head)}
	for _, row := range r.Rows {
		pr := make([]int64, len(head))
		ok := true
		for i, h := range head {
			switch {
			case idx[i] >= 0:
				pr[i] = row[idx[i]]
			case h.Const:
				id, found := db.Dict.Lookup(h.Name)
				if !found {
					ok = false
				}
				pr[i] = id
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			out.Rows = append(out.Rows, pr)
		}
	}
	out.Distinct()
	return out
}
