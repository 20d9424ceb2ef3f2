package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// timeSetUps sets up n deployments one after another and returns
// their set-up times in seconds. Each is closed as soon as it is
// timed; then batches insert batches are applied to its database and
// timed. No shard view reads that database any more, so mutating it is
// safe, and the write samples fall in the same two windows, before and
// after the read phase, as the set-up times.
func timeSetUps(d *dataset, w *workloadSpec, n, batches int) ([]float64, []writeSample, error) {
	var times []float64
	var writes []writeSample
	for i := 0; i < n; i++ {
		e, took, err := startEnv(d.scale, w.backends, nil)
		if err != nil {
			return nil, nil, err
		}
		e.close()
		times = append(times, took.Seconds())
		for b := 0; b < batches; b++ {
			add, fin := applyBatch(e.db, d.enrolmentBatch(b))
			writes = append(writes, writeSample{batch: b, add: add, fin: fin})
		}
		runtime.GC() // each set-up starts from the same heap
	}
	return times, writes, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg config, w *workloadSpec, out io.Writer) (*result, error) {
	d := newDataset(cfg.scale, cfg.seed)
	// cold-plan and warm-repeat take write_p50_ms from the closed
	// set-ups' databases; update-mix from its interleaved batches.
	batches := setupWrites
	if w.writes {
		batches = 0
	}
	// setup_s is the median of cfg.setups set-ups, half timed before
	// the read phase (the last of them serves it) and half after, so a
	// slow spell of the host moves fewer of them.
	setups, setupW, err := timeSetUps(d, w, cfg.setups/2, batches)
	if err != nil {
		return nil, err
	}
	sc := w.script(d, cfg.seed)
	if cfg.failFirstRead {
		sc.reqs[0] = newRequest("not a query", strategies[0], "native")
	}
	ref := newReference(d, cfg.corruptReference)
	// The live heap without the served deployment; heap_live_mb is the
	// phase's heap less this, so it holds only the server's data,
	// caches and memos.
	baseMB := liveHeapMB()
	e, took, err := startEnv(cfg.scale, w.backends, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, took.Seconds())
	pr, err := runPhase(e, sc, d, ref, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		e.close()
		return nil, err
	}
	e.close()
	more, moreW, err := timeSetUps(d, w, cfg.setups-len(setups), batches)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	writes := pr.writes
	if !w.writes {
		writes = append(setupW, moreW...)
	}
	lat, wlat := pr.latencies(), writeLatencies(writes)
	res := &result{
		Correct:   pr.mismatches == 0,
		Attempted: len(pr.reads) + len(writes),
		Failed:    pr.failures(),
		Metrics: map[string]metric{
			"setup_s":      {median(setups), "s"},
			"read_p50_ms":  {percentile(lat, 50), "ms"},
			"read_p95_ms":  {percentile(lat, 95), "ms"},
			"reads_per_s":  {pr.readsPerSecond(), "1/s"},
			"write_p50_ms": {percentile(wlat, 50), "ms"},
			"heap_live_mb": {pr.heapMB - baseMB, "MB"},
		},
	}
	warm := 0
	for _, s := range pr.reads {
		if s.warm {
			warm++
		}
	}
	// failed_ratio and write_p95_ms are printed but have no bound: the
	// first is 0 on a healthy run (the comparator reports any rise in
	// failures as a regression of every metric), and the second sits in
	// the tail that host scheduling makes of 2 ms operations on a
	// shared machine.
	fmt.Fprintf(out, "  reads: %d (%d cold, %d warm); failed_ratio %g (%d/%d); write_p95_ms %.4f ms (n=%d); heap taken after %d reads\n",
		len(pr.reads), len(pr.reads)-warm, warm, div(float64(pr.failures()), len(pr.reads)), pr.failures(), len(pr.reads),
		percentile(wlat, 95), len(wlat), pr.heapAt)
	report(out, res, map[string]int{
		"setup_s": len(setups), "read_p50_ms": len(lat), "read_p95_ms": len(lat), "reads_per_s": len(lat),
		"write_p50_ms": len(wlat),
	})
	if err := mismatchError(pr); err != nil {
		fmt.Fprintln(out, "  MISMATCH:", err)
	}
	return res, nil
}

// runTraced runs the seeded script untraced and then traced, each on a
// fresh deployment, replays the traced phase's cache misses through
// the layers, and reports the per-layer metrics.
func runTraced(cfg config, w *workloadSpec, out io.Writer) (*result, error) {
	d := newDataset(cfg.scale, cfg.seed)
	spans := newSpanLog()
	plain, _, err := startEnv(cfg.scale, w.backends, nil)
	if err != nil {
		return nil, err
	}
	traced, _, err := startEnv(cfg.scale, w.backends, spans)
	if err != nil {
		plain.close()
		return nil, err
	}
	defer traced.close()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	ref := newReference(d, cfg.corruptReference)
	prPlain, err := runPhase(plain, w.script(d, cfg.seed), d, ref, dur)
	plain.close()
	if err != nil {
		return nil, err
	}
	if w.writes {
		ref = newReference(d, false) // back at the initial data version
	}
	sc := w.script(d, cfg.seed)
	pr, err := runPhase(traced, sc, d, ref, dur)
	if err != nil {
		return nil, err
	}
	writes := pr.writes // none on the read-only workloads
	layers, replayed, err := replay(traced, sc.reqs, pr.reads, spans)
	if err != nil {
		return nil, err
	}

	handler := spans.handlerTimes()
	var (
		nReads, nMiss, nNative, nShard, nWarm        int
		searchSum, handlerSum, evalSum, transportSum float64
		frontSum, nativeEval, nativeRows, shardEval  float64
		shardLast                                    = traced.shardBase
	)
	for _, s := range pr.reads {
		if !s.ok {
			continue
		}
		nReads++
		if s.warm {
			nWarm++
		}
		h := handler[s.id]
		handlerSum += h
		searchSum += s.searchMs
		evalSum += s.evalMs
		transportSum += ms(s.latency) - h
		backend := sc.reqs[s.req].Backend
		if s.searchMs > 0 {
			spans.add(span{Req: s.id, Name: "search", Parent: "server.handler", Start: -1, Dur: s.searchMs})
		}
		spans.add(span{Req: s.id, Name: backend + ".eval", Parent: "server.handler", Start: -1, Dur: s.evalMs, Note: hitNote(s.cacheHit)})
		if !s.cacheHit {
			nMiss++
			frontSum += h - s.searchMs - s.evalMs
		}
		if backend == "shard" {
			nShard++
			shardEval += s.evalMs
			if s.shard != nil && s.shard.Hits+s.shard.Misses > shardLast.Hits+shardLast.Misses {
				shardLast = *s.shard
			}
		} else {
			nNative++
			nativeEval += s.evalMs
			nativeRows += float64(s.sig.n)
		}
	}
	var writeAdd, writeFin []float64
	for _, wr := range writes {
		writeAdd = append(writeAdd, ms(wr.add))
		writeFin = append(writeFin, ms(wr.fin))
	}
	shardHits := shardLast.Hits - traced.shardBase.Hits
	shardAll := shardHits + shardLast.Misses - traced.shardBase.Misses
	plainP50, tracedP50 := percentile(prPlain.latencies(), 50), percentile(pr.latencies(), 50)
	mem := func(f func(*runtime.MemStats) uint64) float64 { return float64(f(&pr.mem1) - f(&pr.mem0)) }

	res := &result{
		Correct:   pr.mismatches == 0 && prPlain.mismatches == 0,
		Attempted: len(pr.reads) + len(writes),
		Failed:    pr.failures(),
		Metrics: map[string]metric{
			"search.search_ms":          {div(searchSum, nReads), "ms"},
			"search.replay_ms":          {layers.mean("search.gdl_ms"), "ms"},
			"search.estimate_calls":     {layers.mean("search.estimate_calls"), "count"},
			"search.covers_explored":    {layers.mean("search.covers_explored"), "count"},
			"cost.estimate_ms":          {layers.mean("cost.estimate_ms"), "ms"},
			"engine.estimate_ms":        {layers.mean("engine.estimate_ms"), "ms"},
			"shard.estimate_ms":         {layers.mean("shard.estimate_ms"), "ms"},
			"reformulate.jucq_ms":       {layers.mean("reformulate.jucq_ms"), "ms"},
			"reformulate.disjuncts":     {layers.mean("reformulate.disjuncts"), "count"},
			"sqlgen.gen_ms":             {layers.mean("sqlgen.gen_ms"), "ms"},
			"sqlgen.sql_bytes":          {layers.mean("sqlgen.sql_bytes"), "bytes"},
			"plan.lower_ms":             {layers.mean("plan.lower_ms"), "ms"},
			"plan.rewrite_ms":           {layers.mean("plan.rewrite_ms"), "ms"},
			"plan.validate_ms":          {layers.mean("plan.validate_ms"), "ms"},
			"plan.nodes":                {layers.mean("plan.nodes"), "count"},
			"engine.compile_ms":         {layers.mean("engine.compile_ms"), "ms"},
			"shard.compile_ms":          {layers.mean("shard.compile_ms"), "ms"},
			"engine.run_ms":             {div(nativeEval, nNative), "ms"},
			"engine.rows_out":           {div(nativeRows, nNative), "count"},
			"shard.run_ms":              {div(shardEval, nShard), "ms"},
			"shard.cache_hit_ratio":     {div(float64(shardHits), int(shardAll)), "ratio"},
			"shard.cache_lookups":       {float64(shardAll), "count"},
			"shard.rows_moved":          {layers.mean("shard.rows_moved"), "count"},
			"core.cache_hit_ratio":      {div(float64(pr.cacheHits), int(pr.cacheAll)), "ratio"},
			"core.cache_hits":           {float64(pr.cacheHits), "count"},
			"core.cache_lookups":        {float64(pr.cacheAll), "count"},
			"core.front_ms":             {div(frontSum, nMiss), "ms"},
			"server.handler_ms":         {div(handlerSum, nReads), "ms"},
			"server.transport_ms":       {div(transportSum, nReads), "ms"},
			"server.planning_share":     {(handlerSum - evalSum) / nonZero(handlerSum), "ratio"},
			"engine.write_add_ms":       {median(writeAdd), "ms"},
			"engine.finalize_ms":        {median(writeFin), "ms"},
			"engine.write_p95_ms":       {percentile(writeLatencies(writes), 95), "ms"},
			"go.alloc_kb_per_read":      {div(mem(func(m *runtime.MemStats) uint64 { return m.TotalAlloc })/1024, nReads), "KB"},
			"go.gc_cycles_per_1k_reads": {div(1000*mem(func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) }), nReads), "count"},
			"read.warm_share":           {div(float64(nWarm), nReads), "ratio"},
			"trace.reads":               {float64(nReads), "count"},
			"trace.replayed":            {float64(replayed), "count"},
			"trace.overhead_pct":        {100 * (tracedP50 - plainP50) / nonZero(plainP50), "%"},
		},
	}
	path, err := spans.write(cfg.traceDir, w.name, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  traced reads %d (untraced %d), read_p50 traced %.4f ms vs untraced %.4f ms; spans in %s\n",
		nReads, len(prPlain.reads), tracedP50, plainP50, path)
	report(out, res, nil)
	self := spans.selfTimes()
	for _, name := range []string{"client", "server.handler", "search", "native.eval", "shard.eval", "replay", "search.gdl", "estimator"} {
		if st, ok := self[name]; ok {
			fmt.Fprintf(out, "  self %-16s %6d spans  total %10.2f ms  self %10.2f ms\n", name, st.Count, st.TotalMs, st.SelfMs)
		}
	}
	for _, pr := range []*phaseResult{prPlain, pr} {
		if err := mismatchError(pr); err != nil {
			fmt.Fprintln(out, "  MISMATCH:", err)
		}
	}
	return res, nil
}

func hitNote(hit bool) string {
	if hit {
		return "cacheHit"
	}
	return "cacheMiss"
}

// div is sum/n, or 0 when n is 0.
func div(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
