package lubm

import (
	"sort"

	"repro/internal/dllite"
	"repro/internal/query"
)

// Queries returns the 13-query workload of Section 6.1 (2–10 atoms,
// average ≈5.8; UCQ reformulation sizes spanning tens to hundreds of
// CQs). The mix mirrors the paper's: star joins, chains, queries whose
// root cover is very fragmented (where Croot performs poorly), and a
// 2-atom query with the largest reformulation (the paper's Q11).
func Queries() []query.CQ {
	qs := []string{
		// Q1 — 6-atom star on x (the basis of A3–A6, Section 6.2). The
		// predicates have pairwise-independent dependency sets except
		// takesCourse, so the root cover fragments completely.
		`Q1(x) <- takesCourse(x, c), researchInterest(x, r), attends(x, e), affiliatedWith(x, o), organizes(x, v), reviews(x, p)`,
		// Q2 — 4-atom chain: graduate students, their advisors, courses.
		`Q2(x, c) <- GraduateStudent(x), advisedBy(x, y), teacherOf(y, c), offeredBy(c, d)`,
		// Q3 — 5 atoms: articles by professors and their departments.
		`Q3(x, y) <- Article(x), authorOf(y, x), Professor(y), worksFor(y, d), subOrganizationOf(d, u)`,
		// Q4 — 3 atoms: who heads a department.
		`Q4(x) <- Person(x), headOf(x, d), Department(d)`,
		// Q5 — 7 atoms: course ecosystem around a department.
		`Q5(x, d) <- Course(x), offeredBy(x, d), teacherOf(y, x), takesCourse(z, x), memberOf(z, d), worksFor(y, d), Department(d)`,
		// Q6 — 5 atoms with a selective join but unselective singleton
		// fragments (Croot materializes the Faculty fragment ⇒ poor,
		// like the paper's Q6–Q8).
		`Q6(x) <- Chair(x), headOf(x, d), attends(x, e), organizes(y, e), Faculty(y)`,
		// Q7 — 6 atoms, same flavor.
		`Q7(x, y) <- Student(x), supervisedBy(x, y), teacherOf(y, c), GraduateCourse(c), attends(x, e), organizes(y, e)`,
		// Q8 — 7 atoms.
		`Q8(x) <- Faculty(x), worksFor(x, d), subOrganizationOf(d, u), University(u), hasAlumnus(u, a), advisedBy(s, x), enrolledIn(s, p)`,
		// Q9 — 10 atoms (the paper's largest; its SQL breaks DB2's RDF
		// layout limit).
		`Q9(x, p) <- Faculty(x), worksFor(x, d), subOrganizationOf(d, u), teacherOf(x, c), takesCourse(s, c), advisedBy(s, x), authorOf(x, p), Article(p), cites(q, p), researchInterest(x, r)`,
		// Q10 — 9 atoms.
		`Q10(x, d) <- GraduateStudent(x), memberOf(x, d), Department(d), takesCourse(x, c), offeredBy(c, d), teacherOf(y, c), Professor(y), researchInterest(y, r), researchInterest(x, r)`,
		// Q11 — 2 atoms, the largest single-atom union (the paper's
		// 667-CQ Q11): Person(x) rewrites into the whole subclass and
		// domain/range closure.
		`Q11(x) <- Person(x), attends(x, e)`,
		// Q12 — 4 atoms.
		`Q12(x, u) <- GraduateStudent(x), degreeFrom(x, u), University(u), locatedIn(u, p)`,
		// Q13 — 5 atoms with fragmented root cover.
		`Q13(x) <- Person(x), authorOf(x, p), reviews(y, p), attends(y, e), Colloquium(e)`,
	}
	out := make([]query.CQ, len(qs))
	for i, s := range qs {
		out[i] = query.MustParseCQ(s)
	}
	return out
}

// BoundQueries returns Q1–Q13, each unbound and followed by a copy
// (named with a "b" suffix) with one variable bound to an individual of
// ab: the first non-head variable, bound to the median (in sorted
// order) of the individuals at its position in the facts of its first
// atom. A query whose variable no fact binds has no bound copy.
func BoundQueries(ab *dllite.ABox) []query.CQ {
	var out []query.CQ
	for _, q := range Queries() {
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

// StarQueries returns A3–A6 (Section 6.2): star joins of 3..6 atoms on
// a common subject, derived from Q1; A6 is Q1 itself.
func StarQueries() []query.CQ {
	q1 := Queries()[0]
	names := []string{"A3", "A4", "A5", "A6"}
	out := make([]query.CQ, 0, len(names))
	for i, name := range names {
		n := i + 3
		out = append(out, query.CQ{Name: name, Head: q1.Head, Atoms: q1.Atoms[:n]})
	}
	return out
}
