package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// record is one line of a --record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// series is one workload's untraced runs at one seed, in file order.
type series struct {
	Workload string
	Seed     int64
}

// readRecords returns the untraced results of a record file, grouped
// by workload and seed, in file order.
func readRecords(path string) (map[series][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[series][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			k := series{r.Workload, r.Seed}
			out[k] = append(out[k], r.Result)
		}
	}
	return out, sc.Err()
}

// failedShare is the share of attempted operations that failed over
// runs, with every incorrect run counted as wholly failed.
func failedShare(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		attempted += r.Attempted
		if r.Correct {
			failed += r.Failed
		} else {
			failed += r.Attempted
		}
	}
	return div(float64(failed), attempted)
}

// quartiles returns the three cut points of xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method). It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, n := len(d), 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return out
}

// verdict classifies one (metric, workload) pair of run series, old
// (the parent) against new (the change). Runs pair up in file order.
//   - improved: the change wins at least 9 of every 10 pairs (ties
//     count for neither side) and the medians differ by more than the
//     old runs' quartile spread;
//   - unresolved: the old runs spread (quartile distance over median)
//     wider than the bound, and not every new run beats every old one;
//   - regressed: the new median is worse than the old by more than
//     the bound;
//   - unchanged: otherwise.
func verdict(old, cur []float64, lowerBetter bool, bound float64) (string, float64) {
	if len(old) < 2 || len(cur) < 2 {
		return "unresolved", math.NaN()
	}
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs, wins := min(len(old), len(cur)), 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	allBetter := true
	for _, c := range cur {
		for _, o := range old {
			if !better(c, o) {
				allBetter = false
			}
		}
	}
	q := quartiles(old)
	oldMed, newMed := median(old), median(cur)
	change := (newMed - oldMed) / oldMed // relative; positive = higher
	worse := change
	if !lowerBetter {
		worse = -change
	}
	switch {
	case 10*wins >= 9*pairs && math.Abs(newMed-oldMed) > q[2]-q[0] && worse < 0:
		return "improved", change
	case (q[2]-q[0])/oldMed > bound && !allBetter:
		return "unresolved", change
	case worse > bound:
		return "regressed", change
	}
	return "unchanged", change
}

// runCompare prints a verdict for every (end-to-end metric, workload,
// seed) triple and returns the exit code: 1 if anything regressed, 2
// if the inputs could not be read, else 0. Series at different seeds
// are never paired. When the new runs fail a larger share of their
// operations than the old ones, every metric of that workload and
// seed is regressed: failing fast must not pass for a speed-up.
func runCompare(benchPath, oldPath, newPath string, out io.Writer) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", benchPath+":", err)
		return 2
	}
	old, err := readRecords(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	cur, err := readRecords(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var keys []series
	for k := range old {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Workload != keys[j].Workload {
			return keys[i].Workload < keys[j].Workload
		}
		return keys[i].Seed < keys[j].Seed
	})
	regressed := false
	fmt.Fprintf(out, "%-12s %6s %-14s %-10s %12s %12s %9s %6s\n", "workload", "seed", "metric", "verdict", "old median", "new median", "change", "runs")
	for _, k := range keys {
		oldFail, newFail := failedShare(old[k]), failedShare(cur[k])
		if newFail > oldFail {
			fmt.Fprintf(out, "%-12s %6d more operations failed: %.4f of them, was %.4f\n", k.Workload, k.Seed, newFail, oldFail)
		}
		for _, m := range spec.EndToEnd {
			values := func(rs []result) []float64 {
				var xs []float64
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			o, c := values(old[k]), values(cur[k])
			if len(o) == 0 && len(c) == 0 {
				continue
			}
			v, change := verdict(o, c, m.Better == "lower", m.Bound)
			if newFail > oldFail {
				v = "regressed"
			}
			regressed = regressed || v == "regressed"
			fmt.Fprintf(out, "%-12s %6d %-14s %-10s %12.4f %12.4f %+8.1f%% %3d/%-3d\n",
				k.Workload, k.Seed, m.Name, v, median(o), median(c), 100*change, len(o), len(c))
		}
	}
	if regressed {
		return 1
	}
	return 0
}
