package engine

import (
	"fmt"
	"sort"

	"repro/internal/query"
)

// Relation is a materialized final result (or cached fragment): rows of
// ids under a schema of variable names. Intermediates of the hot path
// no longer materialize Relations — they stream through the operator
// pipeline (operator.go) and are drained into a Relation only at the
// top.
type Relation struct {
	Schema []string
	Rows   [][]int64
}

// Distinct removes duplicate rows in place (stable), deduplicating
// through the 64-bit row hash (collisions verified exactly — no
// string keys).
func (r *Relation) Distinct() {
	set := newRowSet(len(r.Schema))
	out := r.Rows[:0]
	for _, row := range r.Rows {
		if set.insert(row) {
			out = append(out, row)
		}
	}
	r.Rows = out
}

// Decode renders the relation as sorted string tuples via the dictionary.
func (r *Relation) Decode(d *Dictionary) [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		t := make([]string, len(row))
		for j, id := range row {
			t[j] = d.Decode(id)
		}
		out[i] = t
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func headSchema(head []query.Term) []string {
	s := make([]string, len(head))
	for i, h := range head {
		s[i] = h.Name
	}
	return s
}

// String renders a Relation compactly (diagnostics).
func (r *Relation) String() string {
	return fmt.Sprintf("relation%v (%d rows)", r.Schema, len(r.Rows))
}
