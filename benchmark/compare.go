package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// bound is one end-to-end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readResults loads a file of result lines and groups them by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &result{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// verdict applies one bound to the runs of one (metric, workload) pair. a
// and b hold one value per run. A pair whose run-to-run spread is wider than
// the bound is unresolved, not unchanged, unless every run of b reads better
// than every run of a. worse is the share by which b's median is worse.
func verdict(b bound, a, bv []float64, spreadA, spreadB float64) (v string, worse float64) {
	medA, medB := median(a), median(bv)
	if medA != 0 {
		worse = (medB - medA) / medA
	}
	sign := 1.0
	if b.Better == "higher" {
		sign = -1
	}
	worse *= sign
	if max(spreadA, spreadB) > b.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range bv {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "within", worse
		}
		return "unresolved", worse
	}
	if worse > b.Bound {
		return "worse", worse
	}
	return "within", worse
}

// runSpread is the spread of a pair's runs: across runs when there are
// several, else within the single run's repetitions.
func runSpread(rs []*result, name string) ([]float64, float64) {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = r.EndToEnd[name].Median
	}
	if len(vals) >= 2 {
		return vals, spread(vals)
	}
	s := rs[0].EndToEnd[name]
	if s.Median == 0 {
		return vals, 0
	}
	return vals, (s.Q3 - s.Q1) / s.Median
}

// runCompare prints, per (metric, workload), whether file b is within the
// bound of file a, worse, or unresolved, and whether the counts of runs with
// the same seed repeat exactly. It returns 1 if anything is worse or differs.
func runCompare(boundsPath, pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark: -compare:", err)
		return 2
	}
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return fail(err)
	}
	var contract struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		return fail(fmt.Errorf("%s: %w", boundsPath, err))
	}
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}

	code := 0
	fmt.Fprintf(stdout, "%-22s %-14s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, bd := range contract.EndToEnd {
			va, sa := runSpread(ra, bd.Name)
			vb, sb := runSpread(rb, bd.Name)
			v, worse := verdict(bd, va, vb, sa, sb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-22s %-14s %14.6g %14.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, bd.Name, median(va), median(vb), worse*100, max(sa, sb)*100, bd.Bound*100, v)
		}
		// Counts repeat exactly for a seed: hold b's runs to a's.
		bySeed := map[int64]*result{}
		for _, x := range ra {
			bySeed[x.Seed] = x
		}
		seeds := 0
		for _, y := range rb {
			x := bySeed[y.Seed]
			if x == nil {
				continue
			}
			delete(bySeed, y.Seed) // one comparison per seed
			seeds++
			for _, k := range sortedKeys(x.Counts) {
				if yv, ok := y.Counts[k]; ok && yv != x.Counts[k] {
					fmt.Fprintf(stdout, "%-22s count %s (seed %d): %d vs %d  differs\n", w.name, k, x.Seed, x.Counts[k], yv)
					code = 1
				}
			}
		}
		fmt.Fprintf(stdout, "%-22s counts compared for %d seeds the files share\n", w.name, seeds)
	}
	return code
}
