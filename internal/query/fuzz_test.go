package query_test

import (
	"testing"

	"repro/internal/lubm"
	"repro/internal/query"
)

// FuzzParseCQ feeds the CQ parser arbitrary text. Whatever parses must
// print (String) to text that parses back to a query printing the same
// text, and must canonicalize (CanonicalKey) without panicking. The
// corpus starts from the LUBM∃ workload queries.
func FuzzParseCQ(f *testing.F) {
	for _, q := range lubm.Queries() {
		f.Add(q.String())
	}
	f.Add(`q(x) <- worksWith('Ioana', x), supervisedBy(x, "O'Brien")`)
	f.Fuzz(func(t *testing.T, s string) {
		q, err := query.ParseCQ(s)
		if err != nil {
			return
		}
		text := q.String()
		r, err := query.ParseCQ(text)
		if err != nil {
			t.Fatalf("%q parses, but its String %q does not: %v", s, text, err)
		}
		if got := r.String(); got != text {
			t.Fatalf("%q prints %q, which re-parses to %q", s, text, got)
		}
		query.CanonicalKey(q)
	})
}
