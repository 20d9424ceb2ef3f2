package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/sqlgen"
)

// span is one timed interval of one request. Spans of a request share
// Req; Parent names the span that caused it. Start is milliseconds
// since the log began, or -1 for a span known only by its duration
// (the server-reported search and evaluation times).
type span struct {
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"startMs"`
	Dur    float64 `json:"durMs"`
	Note   string  `json:"note,omitempty"`
}

// spanLog keeps a traced run's spans in memory until it writes them
// out at the end of the run.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) since(t time.Time) float64 { return ms(t.Sub(l.t0)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// middleware records a server.handler span around every request the
// wrapped handler serves, tagged with the client's request id.
func (l *spanLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // untagged requests log as id 0
		t0 := time.Now()
		next.ServeHTTP(w, r)
		l.add(span{Req: id, Name: "server.handler", Parent: "client", Start: l.since(t0), Dur: ms(time.Since(t0))})
	})
}

// handlerTimes maps request ids to their server.handler durations.
func (l *spanLog) handlerTimes() map[int64]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int64]float64)
	for _, s := range l.spans {
		if s.Name == "server.handler" {
			out[s.Req] = s.Dur
		}
	}
	return out
}

// selfTime is one span name's total and self time: its spans'
// durations minus the durations of the spans they caused.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

func (l *spanLog) selfTimes() map[string]selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		req  int64
		name string
	}
	children := make(map[key]float64)
	for _, s := range l.spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.Dur
		}
	}
	out := make(map[string]selfTime)
	for _, s := range l.spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += s.Dur
		st.SelfMs += s.Dur - children[key{s.Req, s.Name}]
		out[s.Name] = st
	}
	return out
}

// write stores the spans and their self times as JSON in dir.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	self := l.selfTimes()
	l.mu.Lock()
	doc := struct {
		Workload string              `json:"workload"`
		Seed     int64               `json:"seed"`
		Self     map[string]selfTime `json:"self"`
		Spans    []span              `json:"spans"`
	}{workload, seed, self, l.spans}
	data, err := json.Marshal(doc)
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// countingEstimator wraps a search.Estimator, counting its calls and
// the time spent in them.
type countingEstimator struct {
	inner search.Estimator
	calls int
	busy  time.Duration
}

func (c *countingEstimator) Name() string { return c.inner.Name() }

func (c *countingEstimator) Estimate(n *plan.Node) float64 {
	t0 := time.Now()
	v := c.inner.Estimate(n)
	c.busy += time.Since(t0)
	c.calls++
	return v
}

// meanSet accumulates per-request figures by metric name and reports
// their means (0 for a metric no request contributed to).
type meanSet map[string][2]float64

func (m meanSet) add(name string, v float64) {
	s := m[name]
	m[name] = [2]float64{s[0] + v, s[1] + 1}
}

func (m meanSet) mean(name string) float64 {
	s := m[name]
	if s[1] == 0 {
		return 0
	}
	return s[0] / s[1]
}

// maxReplay caps how many cache-missing requests a traced run replays.
const maxReplay = 48

// replay re-runs the traced phase's cache-missing requests off the
// clock and single-threaded through the layers' public functions:
// cover search with a counting estimator, JUCQ reformulation, SQL
// generation, plan lowering, rewrite and validation, backend compile
// and run. It uses its own Reformulator, estimate memo and a copy of
// the server's profile with feedback detached, so it cannot warm or
// perturb the server's caches. Each layer call is logged as a span
// under the original request's id.
func replay(e *env, reqs []request, reads []*readSample, spans *spanLog) (meanSet, int, error) {
	m := meanSet{}
	prof := *e.ans.Profile
	prof.Feedback = nil
	ref := reformulate.New(e.ans.TBox)
	memo := search.NewMemo()
	model := cost.NewModel(e.db)
	native := engine.NewBackend(e.db, &prof)
	var sharded *shard.Backend
	done := map[int]bool{}
	n := 0
	for _, s := range reads {
		if !s.ok || s.cacheHit || done[s.req] || n == maxReplay {
			continue
		}
		done[s.req] = true
		n++
		r := reqs[s.req]
		q, err := query.ParseCQ(r.Query)
		if err != nil {
			return nil, 0, err
		}
		var backend plan.Backend = native
		layer := "engine"
		if r.Backend == "shard" {
			layer = "shard"
			if sharded == nil {
				if sharded, err = shard.New(e.db, &prof, shardCount); err != nil {
					return nil, 0, err
				}
			}
			backend = sharded
		}
		var est search.Estimator
		estMetric := "cost.estimate_ms"
		switch {
		case r.Strategy == "gdl-ext":
			est = &search.ExtEstimator{Model: model}
		case r.Backend == "shard":
			est, estMetric = &search.BackendEstimator{Backend: sharded}, "shard.estimate_ms"
		default:
			est, estMetric = &search.RDBMSEstimator{DB: e.db, Profile: &prof}, "engine.estimate_ms"
		}
		ce := &countingEstimator{inner: est}
		timed := func(name string, f func() error) error {
			t0 := time.Now()
			err := f()
			d := time.Since(t0)
			spans.add(span{Req: s.id, Name: name, Parent: "replay", Start: spans.since(t0), Dur: ms(d)})
			m.add(name+"_ms", ms(d))
			return err
		}
		t0 := time.Now()
		var sr search.Result
		_ = timed("search.gdl", func() error { sr = search.GDL(q, e.ans.TBox, ref, ce, search.Options{Memo: memo}); return sr.Err })
		if sr.Err != nil {
			return nil, 0, fmt.Errorf("replay search %s: %w", r.Query, sr.Err)
		}
		spans.add(span{Req: s.id, Name: "estimator", Parent: "search.gdl", Start: -1, Dur: ms(ce.busy), Note: estMetric})
		m.add(estMetric, ms(ce.busy))
		m.add("search.estimate_calls", float64(ce.calls))
		m.add("search.covers_explored", float64(sr.ExploredLq+sr.ExploredGq))

		var j query.JUCQ
		if err := timed("reformulate.jucq", func() (err error) { j, err = sr.Cover.ReformulateJUCQ(ref); return err }); err != nil {
			return nil, 0, err
		}
		disj := 0
		for _, sub := range j.Subs {
			disj += len(sub.Disjuncts)
		}
		m.add("reformulate.disjuncts", float64(disj))
		var sql string
		_ = timed("sqlgen.gen", func() error { sql = sqlgen.JUCQ(j, sqlgen.Options{Layout: e.db.Layout}); return nil })
		m.add("sqlgen.sql_bytes", float64(len(sql)))
		var ir *plan.Node
		_ = timed("plan.lower", func() error { ir = plan.FromJUCQ(j); return nil })
		_ = timed("plan.rewrite", func() error { ir = plan.Rewrite(ir); return nil })
		if err := timed("plan.validate", func() error { return plan.Validate(ir) }); err != nil {
			return nil, 0, err
		}
		m.add("plan.nodes", float64(plan.NodeCount(ir)))
		var ex plan.Executable
		if err := timed(layer+".compile", func() (err error) { ex, err = backend.Compile(ir); return err }); err != nil {
			return nil, 0, err
		}
		var rr *plan.RunResult
		if err := timed(layer+".execute", func() (err error) { rr, err = ex.Run(e.ans.Workers); return err }); err != nil {
			return nil, 0, err
		}
		if r.Backend == "shard" {
			m.add("shard.rows_moved", float64(rowsMoved(rr.Explain)))
		}
		spans.add(span{Req: s.id, Name: "replay", Start: spans.since(t0), Dur: ms(time.Since(t0)), Note: r.Strategy + "/" + r.Backend})
	}
	return m, n, nil
}

// rowsMoved reads the exchange row count from a shard run's EXPLAIN
// root ("...; moved N rows; ..."); runs without an exchange move none.
func rowsMoved(ex *plan.Explain) int64 {
	if ex == nil || ex.Root == nil {
		return 0
	}
	var moved int64
	for _, part := range strings.Split(ex.Root.Detail, ";") {
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "moved %d rows", &moved); err == nil {
			return moved
		}
	}
	return 0
}
