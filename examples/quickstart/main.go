// Quickstart: the paper's running example (Examples 1–4) end to end.
//
// Builds the Table 2 TBox and the Example 1 ABox, shows that plain
// evaluation misses the certain answer, reformulates the Example 3
// query, and answers it through the engine under several strategies.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

func main() {
	// Table 2: the TBox (T1)–(T7).
	tbox, err := dllite.ParseTBoxString(`
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
PhDStudent <= not exists supervisedBy-
`)
	if err != nil {
		log.Fatal(err)
	}
	// Example 1: the ABox (A1)–(A3).
	abox := dllite.MustParseABox(`
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
`)

	// Consistency (Section 2.1): no PhD student supervises anyone.
	kb := dllite.KB{T: tbox, A: abox}
	if err := kb.CheckConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("KB is T-consistent")

	// Example 2: entailments that are nowhere in the data.
	fmt.Println("K ⊨ PhDStudent(Damian):",
		kb.EntailsConcept(dllite.C("PhDStudent"), "Damian"))
	fmt.Println("K ⊨ worksWith(Francois, Damian):",
		kb.EntailsRole(dllite.R("worksWith"), "Francois", "Damian"))

	// Example 3: the query asking for PhD students somebody works with.
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")

	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(abox)

	// Plain evaluation ignores the constraints: no answers.
	exec, err := engine.NewBackend(db, engine.ProfilePostgres()).Compile(plan.FromUCQ(query.UCQ{Disjuncts: []query.CQ{q}}))
	if err != nil {
		log.Fatal(err)
	}
	plain, err := exec.Run(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain evaluation: %d answers\n", len(plain.Tuples))

	// Query answering via FOL reformulation: {Damian}, under every
	// strategy (Theorems 1 and 3).
	answerer := core.New(tbox, db, engine.ProfilePostgres())
	for _, s := range core.Strategies() {
		res, err := answerer.Answer(q, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s -> %v  (fragments=%d, disjuncts=%d, SQL=%dB)\n",
			s, res.Tuples, res.NumFragments, res.NumDisjuncts, res.SQLSize)
	}
}
