package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/server"
)

// warmupQuery is the request each backend serves once during set-up,
// which forces the server's lazy set-up (the shard backend partitions
// the database on first use). It shares no template with the
// workloads' requests.
const warmupQuery = "q(x) <- Department(x)"

// reqHeader carries the request id the traced run's spans share.
const reqHeader = "X-Bench-Req"

// env is one served deployment: the database, the Answerer, the
// server listening on a loopback port, and the client talking to it.
type env struct {
	db     *engine.DB
	ans    *core.Answerer
	hs     *http.Server
	served chan error
	url    string
	tr     *http.Transport
	client *http.Client
	spans  *spanLog // nil when untraced

	// shardBase is the shard cache's hit/miss count after set-up.
	shardBase server.ShardCacheStats
}

// startEnv generates and loads the data, finalizes it, builds the
// Answerer and the server, starts serving on a loopback port, and
// sends one warm-up request per backend. The returned duration is that
// whole set-up. spans, when non-nil, wraps the server's handler in the
// tracing middleware.
func startEnv(scale int, backends []string, spans *spanLog) (*env, time.Duration, error) {
	start := time.Now()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: scale, Seed: dataSeed}, db)
	db.Finalize()
	a := core.New(lubm.TBox(), db, engine.ProfilePostgres())
	var h http.Handler = server.NewWithOptions(a, server.Options{Shards: shardCount})
	if spans != nil {
		h = spans.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	e := &env{
		db:     db,
		ans:    a,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/query",
		tr:     tr,
		client: &http.Client{Transport: tr},
		spans:  spans,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for _, b := range backends {
		resp, status, err := e.post(newRequest(warmupQuery, "ucq", b).body, 0)
		if err != nil {
			e.close()
			return nil, 0, fmt.Errorf("warm-up on %s: status %d: %w", b, status, err)
		}
		if resp.ShardCache != nil {
			e.shardBase = *resp.ShardCache
		}
	}
	return e, time.Since(start), nil
}

// post sends one POST /query and decodes the answer. id tags the
// request for the tracing middleware.
func (e *env) post(body []byte, id int64) (server.QueryResponse, int, error) {
	var out server.QueryResponse
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e.spans != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, resp.StatusCode, fmt.Errorf("decode: %w", err)
	}
	// Drain the trailing newline so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return out, resp.StatusCode, nil
}

// close stops the server, waits for Serve to return, and drops the
// client's idle connections.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // Serve's own return value is awaited below
	e.tr.CloseIdleConnections()
	<-e.served
}

// applyBatch inserts one batch through the engine's mutation API and
// re-finalizes, returning the time spent adding facts and finalizing.
func applyBatch(db *engine.DB, batch []fact) (add, fin time.Duration) {
	t0 := time.Now()
	for _, f := range batch {
		if f.o == "" {
			db.AddConceptFact(f.pred, f.s)
		} else {
			db.AddRoleFact(f.pred, f.s, f.o)
		}
	}
	t1 := time.Now()
	db.Finalize()
	return t1.Sub(t0), time.Since(t1)
}
