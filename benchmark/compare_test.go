package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := bound{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := bound{Name: "events_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name   string
		b      bound
		a, bv  []float64
		sa, sb float64
		want   string
	}{
		{"same", lower, []float64{1, 1.01, 0.99}, []float64{1.02, 1, 1.01}, 0.02, 0.02, "within"},
		{"slower by 20%", lower, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, 0.02, 0.02, "worse"},
		{"faster", lower, []float64{1, 1.01, 0.99}, []float64{0.5, 0.51, 0.52}, 0.02, 0.02, "within"},
		{"throughput down 20%", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, 0.02, 0.02, "worse"},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, 0.02, 0.02, "within"},
		// Spread wider than the bound: no verdict either way ...
		{"noisy", lower, []float64{1, 1.3, 0.8}, []float64{1.1, 1.4, 0.9}, 0.3, 0.3, "unresolved"},
		// ... unless every run of b beats every run of a.
		{"noisy but disjoint", lower, []float64{1, 1.3, 0.8}, []float64{0.5, 0.7, 0.4}, 0.3, 0.3, "within"},
		{"exact metric moved", bound{Name: "q3_csr", Better: "lower", Bound: 0.01}, []float64{0.10}, []float64{0.12}, 0, 0, "worse"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.b, c.a, c.bv, c.sa, c.sb); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRunSpreadUsesRunsWhenThereAreSeveral(t *testing.T) {
	one := []*result{{EndToEnd: map[string]summary{"run_s": {Median: 2, Q1: 1.9, Q3: 2.1}}}}
	if _, s := runSpread(one, "run_s"); s < 0.099 || s > 0.101 {
		t.Errorf("single run: spread %v, want the repetitions' 0.1", s)
	}
	var many []*result
	for _, v := range []float64{1, 2, 3, 4, 5} {
		many = append(many, &result{EndToEnd: map[string]summary{"run_s": {Median: v}}})
	}
	if vals, s := runSpread(many, "run_s"); len(vals) != 5 || s != 1 {
		t.Errorf("five runs: values %v spread %v, want 1", vals, s)
	}
}
