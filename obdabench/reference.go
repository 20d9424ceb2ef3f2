package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
)

// signature summarizes an answer set: its size and an
// order-independent hash of its tuples. A duplicate tuple changes the
// size, so a bag is never mistaken for the set.
type signature struct {
	n   int
	sum uint64
}

func signatureOf(tuples [][]string) signature {
	s := signature{n: len(tuples)}
	for _, t := range tuples {
		s.sum += tupleHash(t)
	}
	return s
}

// tupleHash is FNV-1a over the tuple's values, each terminated by a
// zero byte, finished with a 64-bit mix so sums of hashes spread.
func tupleHash(t []string) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= 1099511628211
		}
		h *= 1099511628211 // the zero terminator
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// reference computes expected answers through a path that shares no
// cache with the server: its own database, loaded from the same ABox
// and receiving the same insert batches, and its own cache-less
// Answerer evaluating the plain PerfectRef UCQ (strategy ucq, no
// cover search). It is used by one goroutine at a time.
type reference struct {
	db    *engine.DB
	ans   *core.Answerer
	epoch int // insert batches applied so far
	memo  map[string]signature
	// corrupt alters the first answer computed (test hook).
	corrupt bool
}

func newReference(d *dataset, corrupt bool) *reference {
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(d.abox)
	a := core.New(lubm.TBox(), db, engine.ProfilePostgres())
	a.Cache = nil
	return &reference{db: db, ans: a, memo: make(map[string]signature), corrupt: corrupt}
}

// expect returns the reference signature of text at the current epoch.
func (r *reference) expect(text string) (signature, error) {
	key := fmt.Sprintf("%d\x00%s", r.epoch, text)
	if s, ok := r.memo[key]; ok {
		return s, nil
	}
	q, err := query.ParseCQ(text)
	if err != nil {
		return signature{}, err
	}
	res, err := r.ans.Answer(q, core.StrategyUCQ)
	if err != nil {
		return signature{}, fmt.Errorf("reference %s: %w", text, err)
	}
	s := signatureOf(res.Tuples)
	if r.corrupt {
		r.corrupt = false
		s.n++
	}
	r.memo[key] = s
	return s, nil
}

// apply moves the reference to the next epoch.
func (r *reference) apply(batch []fact) {
	applyBatch(r.db, batch)
	r.epoch++
}

// check compares every read against the reference at the current
// epoch, returning the number of mismatches and a description of the
// first.
func (r *reference) check(reqs []request, reads []*readSample) (int, string, error) {
	bad, first := 0, ""
	for _, s := range reads {
		if !s.ok {
			continue
		}
		want, err := r.expect(reqs[s.req].Query)
		if err != nil {
			return 0, "", err
		}
		if want != s.sig {
			if bad == 0 {
				rq := reqs[s.req]
				first = fmt.Sprintf("%s [%s/%s] at epoch %d: got %d tuples, want %d (or a different set)",
					rq.Query, rq.Strategy, rq.Backend, r.epoch, s.sig.n, want.n)
			}
			bad++
		}
	}
	return bad, first, nil
}
