package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "harness.rep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "sim.run", Start: 10, End: 90},
		// Adjacent children of sim.run.
		{ID: 2, Parent: 1, Name: "core.train", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.tick", Start: 30, End: 40},
		// Overlapping children (two shards at once): 50-70 and 60-80
		// cover 30, not 40.
		{ID: 4, Parent: 1, Name: "core.tick", Start: 50, End: 70},
		{ID: 5, Parent: 1, Name: "core.tick", Start: 60, End: 80},
		// Nested below a child.
		{ID: 6, Parent: 2, Name: "classify.categorize", Start: 12, End: 27},
		// A child that runs past its parent is clipped to it.
		{ID: 7, Parent: 1, Name: "trace.generate", Start: 85, End: 95},
	}
	want := []int64{20, 80 - 20 - 10 - 30 - 5, 5, 10, 20, 20, 15, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesOfOneGoroutineSumToTheRoot(t *testing.T) {
	// Without overlap every nanosecond of the root belongs to exactly one
	// span, so the layers' self times add up to the traced wall time.
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "harness.rep", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Op: 1, Name: "sim.run", Start: 5, End: 990},
		{ID: 2, Parent: 1, Op: 1, Name: "core.train", Start: 6, End: 400},
		{ID: 3, Parent: 1, Op: 1, Name: "core.tick", Start: 410, End: 500},
		{ID: 4, Parent: 1, Op: 1, Name: "classify.retrain", Start: 500, End: 700},
		{ID: 5, Parent: 1, Op: 1, Name: "core.tick", Start: 700, End: 980},
		{ID: 6, Parent: -1, Op: 2, Name: "harness.rep", Start: 2000, End: 2500},
	}
	layers := layerSelfSeconds(spans[:6])
	total := 0.0
	for _, s := range layers {
		total += s
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-15 }
	if !near(total, 1000e-9) {
		t.Errorf("self times of repetition 1 sum to %v s, want the root's 1000 ns", total)
	}
	if got := layers["core"]; !near(got, (394+90+280)*1e-9) {
		t.Errorf("core self time %v", got)
	}
	if got := stats.Sum(durations(spans[:6], "core.tick")); !near(got, 370e-9) {
		t.Errorf("tick durations sum to %v", got)
	}
}

func TestSpanFileParses(t *testing.T) {
	tr := newTracer()
	root := tr.begin("harness.rep", -1, 1)
	child := tr.begin("core.tick", root, 1)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[1].Parent != back[0].ID || back[1].Name != "core.tick" || back[1].Op != 1 {
		t.Fatalf("read back %+v", back)
	}
	if back[1].Start < back[0].Start || back[1].End > back[0].End || back[1].End < back[1].Start {
		t.Errorf("child %+v not inside parent %+v", back[1], back[0])
	}
}
