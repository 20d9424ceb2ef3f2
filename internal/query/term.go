// Package query implements the first-order query dialects of the paper
// (Table 4): conjunctive queries (CQ), unions of CQs (UCQ),
// semi-conjunctive queries (SCQ), unions of SCQs (USCQ), joins of UCQs
// (JUCQ) and joins of USCQs (JUSCQ), together with substitutions,
// most-general unifiers, canonical forms, homomorphism-based containment
// and UCQ minimization.
//
// Queries are built from unary atoms A(t) (concepts) and binary atoms
// R(t,t') (roles) over variables and constants; this matches the
// DL-LiteR setting of the paper but the package itself is independent of
// any ontology language.
package query

import "strings"

// Term is a variable or a constant appearing in an atom argument.
// The zero value is an (invalid) variable with an empty name.
type Term struct {
	Name  string
	Const bool
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Name: name} }

// Cst returns a constant term with the given value.
func Cst(value string) Term { return Term{Name: value, Const: true} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return !t.Const }

// String renders the term; constants are quoted to disambiguate, in
// single quotes unless the value contains one (ParseCQ reads either
// quote and has no escapes, so the rendering parses back).
func (t Term) String() string {
	if t.Const {
		if strings.Contains(t.Name, "'") {
			return `"` + t.Name + `"`
		}
		return "'" + t.Name + "'"
	}
	return t.Name
}

// Substitution maps variable names to terms. Applying a substitution
// leaves constants and unmapped variables untouched.
type Substitution map[string]Term

// Apply resolves t through the substitution, following chains of
// variable-to-variable bindings (the maps produced by Unify are not
// necessarily idempotent).
func (s Substitution) Apply(t Term) Term {
	for !t.Const {
		u, ok := s[t.Name]
		if !ok || u == t {
			return t
		}
		t = u
	}
	return t
}

// Bind records that variable v resolves to term t.
func (s Substitution) Bind(v string, t Term) { s[v] = t }

// Clone returns an independent copy of the substitution.
func (s Substitution) Clone() Substitution {
	c := make(Substitution, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s Substitution) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for k, v := range s {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(k)
		b.WriteString("→")
		b.WriteString(v.String())
	}
	b.WriteByte('}')
	return b.String()
}
