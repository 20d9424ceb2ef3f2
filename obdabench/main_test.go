package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dllite"
	"repro/internal/lubm"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// benchContract is the part of BENCHMARK.json the tests check against.
type benchContract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) benchContract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchContract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  0.3,
		trace:    trace,
		scale:    1,
		setups:   1,
		traceDir: t.TempDir(),
	}
}

// TestShortRunPrintsEveryMetric runs every workload briefly, untraced
// and traced, and checks that the result and the printed report carry
// every metric BENCHMARK.json names, with its unit.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		for _, trace := range []bool{false, true} {
			var out strings.Builder
			res, err := run(shortConfig(t, wl.Name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%v: report does not print %s", wl.Name, trace, m.Name)
				}
			}
			if !trace && !strings.Contains(out.String(), "(n=") {
				t.Errorf("%s: report prints no sample counts", wl.Name)
			}
		}
	}
}

// TestCorruptedReferenceIsCaught alters one reference answer and
// checks that the run reports the mismatch.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	for _, wl := range workloadNames() {
		cfg := shortConfig(t, wl, false)
		cfg.corruptReference = true
		var out strings.Builder
		res, err := run(cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || !strings.Contains(out.String(), "MISMATCH") {
			t.Errorf("%s: corrupted reference not caught:\n%s", wl, out.String())
		}
	}
}

// TestFailedReadIsCounted makes the first cold-plan request one the
// server rejects and checks that the run counts it as failed, keeps it
// out of reads_per_s, and still checks every other answer.
func TestFailedReadIsCounted(t *testing.T) {
	cfg := shortConfig(t, "cold-plan", false)
	cfg.failFirstRead = true
	var out strings.Builder
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || !res.Correct {
		t.Errorf("failed=%d correct=%v, want 1 failed read in a correct run\n%s", res.Failed, res.Correct, out.String())
	}

	pr := &phaseResult{
		reads:  []*readSample{{ok: true, latency: time.Millisecond}, {ok: false}, {ok: true, latency: 3 * time.Millisecond}},
		active: time.Second,
	}
	if got := pr.readsPerSecond(); got != 2 {
		t.Errorf("readsPerSecond = %g, want 2: the failed read completed nothing", got)
	}
	if got := pr.latencies(); len(got) != 2 {
		t.Errorf("latencies = %v, want the 2 successful reads", got)
	}
}

// TestReferenceMatchesNaive checks the run-time reference path (a
// cache-less Answerer evaluating the PerfectRef UCQ on the engine)
// against internal/naive over the same UCQ, on every template unbound
// and bound as cold-plan binds it, at a scale where naive finishes.
func TestReferenceMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("naive evaluation is slow")
	}
	d := newDataset(1, 5)
	ref := newReference(d, false)
	rf := reformulate.New(lubm.TBox())
	rng := rand.New(rand.NewSource(5))
	for _, q := range lubm.Queries() {
		texts := []string{q.String()}
		if b := d.bindings(q, rng); len(b) > 0 {
			texts = append(texts, b[0])
		}
		for _, text := range texts {
			cq, err := query.ParseCQ(text)
			if err != nil {
				t.Fatal(err)
			}
			u, err := rf.Reformulate(cq)
			if err != nil {
				t.Fatal(err)
			}
			var tuples [][]string
			for _, tu := range naiveUCQ(u, d) {
				tuples = append(tuples, tu)
			}
			got, err := ref.expect(text)
			if err != nil {
				t.Fatal(err)
			}
			if want := signatureOf(tuples); got != want {
				t.Errorf("%s: reference %+v, naive %+v", text, got, want)
			}
		}
	}
}

// naiveUCQ evaluates u with internal/naive, giving each disjunct only
// the facts of the predicates it mentions.
func naiveUCQ(u query.UCQ, d *dataset) map[string][]string {
	out := map[string][]string{}
	for _, cq := range u.Disjuncts {
		var facts []dllite.Assertion
		seen := map[string]bool{}
		for _, a := range cq.Atoms {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				facts = append(facts, d.byPred[a.Pred]...)
			}
		}
		for k, tu := range naive.EvalCQ(cq, &dllite.ABox{Assertions: facts}).Tuples {
			out[k] = tu
		}
	}
	return out
}

// TestColdScriptNeverRepeats checks that cold-plan's request texts are
// all distinct and that every template and both backends appear.
func TestColdScriptNeverRepeats(t *testing.T) {
	d := newDataset(defaultScale, 9)
	sc := coldScript(d, 9)
	seen := map[string]bool{}
	templates := map[string]bool{}
	backends := map[string]int{}
	for _, r := range sc.reqs {
		if seen[r.Query] {
			t.Fatalf("query repeats: %s", r.Query)
		}
		seen[r.Query] = true
		name, _, _ := strings.Cut(r.Query, "(")
		templates[name] = true
		backends[r.Backend]++
	}
	if len(templates) != len(lubm.Queries()) {
		t.Errorf("templates covered: %d of %d", len(templates), len(lubm.Queries()))
	}
	if share := float64(backends["shard"]) / float64(len(sc.reqs)); share < 0.2 || share > 0.3 {
		t.Errorf("shard share %.2f, want about a quarter", share)
	}
	// Enough first-seen requests for a long run of the slowest mix.
	if len(sc.reqs) < 26*20 {
		t.Errorf("only %d distinct cold requests", len(sc.reqs))
	}
}

// TestRecordMatchesWorkloads checks the workload record against the
// workloads the code runs.
func TestRecordMatchesWorkloads(t *testing.T) {
	data, err := os.ReadFile("record.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Workloads map[string]struct {
			Clients    int      `json:"clients"`
			Backends   []string `json:"backends"`
			Strategies []string `json:"strategies"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		r, ok := rec.Workloads[name]
		if !ok {
			t.Errorf("record.json lacks %s", name)
			continue
		}
		if r.Clients != w.clients || strings.Join(r.Backends, ",") != strings.Join(w.backends, ",") ||
			strings.Join(r.Strategies, ",") != strings.Join(strategies, ",") {
			t.Errorf("record.json %s = %+v, code has clients=%d backends=%v strategies=%v", name, r, w.clients, w.backends, strategies)
		}
	}
	if n := len(warmRequests([]string{"native", "shard"})); n != 52 {
		t.Errorf("warm-repeat has %d keys, the record says 52", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		old, cur    []float64
		lowerBetter bool
		want        string
	}{
		{base, faster, true, "improved"},
		{base, slower, true, "regressed"},
		{base, base, true, "unchanged"},
		{base, faster, false, "regressed"},
		{noisy, slower, true, "unresolved"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.old, c.cur, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// writeRecords writes one record line per result to a new file.
func writeRecords(t *testing.T, name string, recs []record) string {
	t.Helper()
	var b strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runs makes ten cold-plan records at seed with read_p50_ms around
// p50 and the given failed count per run.
func runs(seed int64, p50 float64, failed int) []record {
	var out []record
	for i := 0; i < 10; i++ {
		out = append(out, record{Workload: "cold-plan", Seed: seed, Result: result{
			Correct: true, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"read_p50_ms": {p50 + float64(i%3)/10, "ms"}},
		}})
	}
	return out
}

// TestCompareRegressesOnFailures checks that a change whose runs fail
// more requests is regressed even where it reads faster.
func TestCompareRegressesOnFailures(t *testing.T) {
	old := writeRecords(t, "old.jsonl", runs(1, 10, 0))
	cur := writeRecords(t, "new.jsonl", runs(1, 5, 1))
	var out strings.Builder
	if code := runCompare("../BENCHMARK.json", old, cur, &out); code != 1 {
		t.Errorf("exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "read_p50_ms    regressed") || strings.Contains(out.String(), "improved") {
		t.Errorf("faster but failing change not regressed:\n%s", out.String())
	}

	clean := writeRecords(t, "clean.jsonl", runs(1, 5, 0))
	out.Reset()
	if code := runCompare("../BENCHMARK.json", old, clean, &out); code != 0 || !strings.Contains(out.String(), "improved") {
		t.Errorf("exit %d, want 0 with an improvement\n%s", code, out.String())
	}
}

// TestCompareKeepsSeedsApart checks that runs at different seeds are
// never paired: the held-out seed's slower runs in the old file do not
// make the default seed's runs look faster.
func TestCompareKeepsSeedsApart(t *testing.T) {
	old := writeRecords(t, "old.jsonl", append(runs(1, 10, 0), runs(7919, 20, 0)...))
	cur := writeRecords(t, "new.jsonl", runs(1, 10, 0))
	var out strings.Builder
	if code := runCompare("../BENCHMARK.json", old, cur, &out); code != 0 {
		t.Errorf("exit %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"cold-plan         1 read_p50_ms    unchanged", "cold-plan      7919 read_p50_ms    unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
