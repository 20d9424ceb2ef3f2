// Command obdabench is the repository's end-to-end serving benchmark.
// It generates a LUBM∃ ABox, serves it through internal/server over
// loopback HTTP from inside this process, drives one closed-loop
// workload for a fixed time, checks every answer against a reference
// computed off the clock, and prints one JSON result line whose
// metrics BENCHMARK.json names.
//
// Run it through run.sh from the repository root:
//
//	bash obdabench/run.sh --workload cold-plan --seed 1 --seconds 10 --trace 0
//	bash obdabench/run.sh --compare old.jsonl new.jsonl
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the same seeded request sequence runs twice on fresh
// deployments, untraced and then traced; the traced phase's
// cache-missing requests are replayed off the clock through the
// layers' public functions, and the result carries the per-layer
// metrics plus the tracing overhead. --record appends each result to a
// JSON-lines file that --compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int
	setups   int    // set-ups per run; setup_s is their median
	traceDir string // where the traced run writes its spans

	// corruptReference alters one reference answer, so a run must
	// report a mismatch (the benchmark's own test sets it).
	corruptReference bool
	// failFirstRead replaces the script's first request with one the
	// server rejects, so a run must count a failed read (test hook).
	failFirstRead bool
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the traffic: request order, bound individuals, insert batches")
		seconds   = flag.Float64("seconds", 10, "measured length of the load phase")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		traceDir  = flag.String("trace-dir", ".bench_build/traces", "directory for the traced run's span file")
		record    = flag.String("record", "", "append {workload, seed, trace, result} to this JSON-lines file")
		compare   = flag.Bool("compare", false, "compare two record files: --compare OLD NEW")
		benchPath = flag.String("benchmark", "BENCHMARK.json", "metric bounds used by --compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: obdabench --compare OLD.jsonl NEW.jsonl")
			os.Exit(2)
		}
		os.Exit(runCompare(*benchPath, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "obdabench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scale:    defaultScale,
		setups:   defaultSetups,
		traceDir: *traceDir,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obdabench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obdabench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := appendRecord(*record, cfg, line); err != nil {
			fmt.Fprintln(os.Stderr, "obdabench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result line. It
// writes a human-readable report (environment, every metric with its
// unit and sample count) to out.
func run(cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	fmt.Fprintf(out, "obdabench %s seed=%d scale=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		w.name, cfg.seed, cfg.scale, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if cfg.trace {
		return runTraced(cfg, w, out)
	}
	return runUntraced(cfg, w, out)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear
// interpolation between closest ranks (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report prints every metric of the result, sorted by name, with the
// sample count noted where one applies.
func report(out io.Writer, res *result, samples map[string]int) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if c, ok := samples[n]; ok {
			fmt.Fprintf(out, "  %-28s %14.4f %-6s (n=%d)\n", n, m.Value, m.Unit, c)
		} else {
			fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(out, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// appendRecord adds one {workload, seed, trace, result} line to path.
func appendRecord(path string, cfg config, line []byte) error {
	rec, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Trace    bool            `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{cfg.workload, cfg.seed, cfg.trace, line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}
