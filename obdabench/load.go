package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// readSample is one POST /query as the client saw it.
type readSample struct {
	req     int   // index into script.reqs
	id      int64 // request id shared by the traced run's spans
	latency time.Duration
	ok      bool // 200 with a decodable body
	// warm marks a repeat of a key already sent at the same data
	// version (after the warm-up pass, or earlier in the phase); a
	// first-seen key is cold and misses every cache.
	warm  bool
	epoch int // insert batches applied before the read was sent
	sig   signature

	searchMs, evalMs float64
	cacheHit         bool
	shard            *server.ShardCacheStats
}

func label(warm bool) string {
	if warm {
		return "warm"
	}
	return "cold"
}

// writeSample is one timed insert batch.
type writeSample struct {
	batch    int // its number, for enrolmentBatch
	add, fin time.Duration
}

// phaseResult is one load phase's samples and counters.
type phaseResult struct {
	reads  []*readSample
	writes []writeSample
	active time.Duration // wall time of the timed phase

	mismatches int
	firstBad   string

	// heapMB is the live heap once heapReads timed reads were done
	// (or at the end of a phase with fewer), after heapAt reads.
	heapMB float64
	heapAt int64

	mem0, mem1          runtime.MemStats
	cacheHits, cacheAll uint64 // answer-cache lookups during the phase
}

// runPhase drives the script's closed-loop clients against e for dur
// and then checks every read against ref. A client sends its next
// request only after the previous answer is decoded. Insert batches
// (update-mix, one client) are applied between reads; afterwards the
// reference replays them in order, so each read is checked at the data
// version it saw.
func runPhase(e *env, sc *script, d *dataset, ref *reference, dur time.Duration) (*phaseResult, error) {
	pr := &phaseResult{}
	var ids, done atomic.Int64 // done counts the timed reads
	read := func(i int, warm bool, epoch int) *readSample {
		s := &readSample{req: i, id: ids.Add(1), warm: warm, epoch: epoch}
		t0 := time.Now()
		resp, _, err := e.post(sc.reqs[i].body, s.id)
		s.latency = time.Since(t0)
		if err == nil {
			s.ok = true
			s.sig = signatureOf(resp.Answers)
			s.searchMs, s.evalMs, s.cacheHit = resp.SearchMs, resp.EvalMs, resp.CacheHit
			s.shard = resp.ShardCache
		}
		if e.spans != nil {
			e.spans.add(span{Req: s.id, Name: "client", Start: e.spans.since(t0), Dur: ms(s.latency), Note: label(warm)})
		}
		return s
	}

	// The untimed warm-up pass: every key planned and cached once.
	var warmReads []*readSample
	for _, i := range sc.warmup {
		s := read(i, false, 0)
		if !s.ok {
			return nil, fmt.Errorf("warm-up request failed: %s", sc.reqs[i].Query)
		}
		warmReads = append(warmReads, s)
	}

	runtime.GC() // every phase starts from a collected heap
	h0, m0 := e.ans.Cache.Stats()
	runtime.ReadMemStats(&pr.mem0)
	start := time.Now()
	var (
		wg     sync.WaitGroup
		perCl  = make([][]*readSample, len(sc.clients))
		writes []writeSample // only single-client workloads write
		// gate is held shared by each request in flight, so the heap
		// checkpoint, holding it exclusively, sees no other client's
		// allocations.
		gate sync.RWMutex
	)
	for c, next := range sc.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// seen holds the keys already sent at the current data
			// version: a read of one of them is warm, any other cold.
			seen := map[int]bool{}
			for _, i := range sc.warmup {
				seen[i] = true
			}
			for time.Since(start) < dur {
				st, more := next()
				if !more {
					break
				}
				if st.read >= 0 {
					gate.RLock()
					perCl[c] = append(perCl[c], read(st.read, seen[st.read], len(writes)))
					n := done.Add(1)
					gate.RUnlock()
					seen[st.read] = true
					if n == heapReads {
						gate.Lock()
						pr.heapMB, pr.heapAt = liveHeapMB(), heapReads
						gate.Unlock()
					}
					continue
				}
				add, fin := applyBatch(e.db, d.enrolmentBatch(st.write))
				writes = append(writes, writeSample{batch: st.write, add: add, fin: fin})
				clear(seen)
			}
		}()
	}
	wg.Wait()
	pr.active = time.Since(start)
	if pr.heapAt == 0 {
		pr.heapMB, pr.heapAt = liveHeapMB(), done.Load()
	}
	runtime.ReadMemStats(&pr.mem1)
	h1, m1 := e.ans.Cache.Stats()
	pr.cacheHits, pr.cacheAll = h1-h0, (h1+m1)-(h0+m0)
	pr.writes = writes
	for _, cl := range perCl {
		pr.reads = append(pr.reads, cl...)
	}

	// Check the reads only now, so the reference's own memory stays
	// the same through the phase. The warm-up pass ran at the first
	// data version. Check each data version's reads, then move the
	// reference on.
	if err := pr.check(ref, sc, warmReads); err != nil {
		return nil, err
	}
	byEpoch := make([][]*readSample, len(writes)+1)
	for _, s := range pr.reads {
		byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
	}
	for ep, reads := range byEpoch {
		if err := pr.check(ref, sc, reads); err != nil {
			return nil, err
		}
		if ep < len(writes) {
			ref.apply(d.enrolmentBatch(writes[ep].batch))
		}
	}
	return pr, nil
}

// check compares reads with the reference, accumulating mismatches.
func (pr *phaseResult) check(ref *reference, sc *script, reads []*readSample) error {
	bad, first, err := ref.check(sc.reqs, reads)
	if err != nil {
		return err
	}
	if pr.mismatches == 0 && bad > 0 {
		pr.firstBad = first
	}
	pr.mismatches += bad
	return nil
}

// failures counts reads that got no decodable 200 answer.
func (pr *phaseResult) failures() int {
	n := 0
	for _, s := range pr.reads {
		if !s.ok {
			n++
		}
	}
	return n
}

// readsPerSecond is the rate of successful reads over the phase's
// wall time. A failed read completes nothing, so it does not count.
func (pr *phaseResult) readsPerSecond() float64 {
	return float64(len(pr.reads)-pr.failures()) / pr.active.Seconds()
}

// latencies returns the successful reads' client latencies in ms. A
// failed read has no latency: it ended without an answer.
func (pr *phaseResult) latencies() []float64 {
	var out []float64
	for _, s := range pr.reads {
		if s.ok {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func writeLatencies(ws []writeSample) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = ms(w.add + w.fin)
	}
	return out
}

// mismatchError reports a run whose answers disagreed with the
// reference.
func mismatchError(pr *phaseResult) error {
	if pr.mismatches == 0 {
		return nil
	}
	return fmt.Errorf("%d answer(s) differ from the reference; first: %s", pr.mismatches, pr.firstBad)
}
