package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// tinySpec is batch-dense's code path over a workload small enough for a
// unit test.
var tinySpec = spec{name: "tiny", why: "test", setup: func(e *env) (workload, error) {
	s := experiments.Settings{Functions: 60, Days: 3, TrainDays: 2, SPES: core.DefaultConfig()}
	seedScenario(&s, e.seed)
	return setupMaterialized(e, s, sim.Options{})
}}

func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return v
}

func TestUntracedRunPrintsTheContractLine(t *testing.T) {
	res, err := measure(tinySpec, options{seed: 2, seconds: 0.01}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := emit(res, options{}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	line := lastLine(t, stdout.String())
	if len(line) != 4 || line["correct"] != true || line["failed"] != float64(0) || line["attempted"] != float64(minReps) {
		t.Errorf("contract line %v", line)
	}
	metrics := line["metrics"].(map[string]any)
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, _ := metrics[d.name].(map[string]any)
		if m == nil || m["unit"] != d.unit || m["value"] == float64(0) {
			t.Errorf("metric %s = %v", d.name, metrics[d.name])
		}
	}
	if res.Reps["setup"] != setupsUntraced || res.Counts["events"] == 0 {
		t.Errorf("repetitions %v, counts %v", res.Reps, res.Counts)
	}
}

func TestTracedRunReportsEveryLayerMetricAndWritesSpans(t *testing.T) {
	spans := t.TempDir() + "/spans.jsonl"
	res, err := measure(tinySpec, options{seed: 2, seconds: 0.01, trace: 1, spans: spans}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := emit(res, options{}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	metrics := lastLine(t, stdout.String())["metrics"].(map[string]any)
	if len(metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(metrics), len(perLayer))
	}
	for _, name := range []string{"classify.categorize_s", "core.train_s", "core.tick_s", "core.tick_count", "sim.step_s", "sim.self_s", "trace.generate_s", "trace.slot_index_s"} {
		if res.Layers[name] <= 0 {
			t.Errorf("layer metric %s = %v on a workload that uses the layer", name, res.Layers[name])
		}
	}
	if res.Layers["serve.journal.bytes"] != 0 {
		t.Error("a batch workload reports serve work")
	}
	if _, ok := res.Layers["trace_overhead_share"]; !ok {
		t.Error("no trace_overhead_share")
	}
	// On one goroutine the layers' self times add up to the traced wall time.
	if res.TracedWall <= 0 || res.SelfShare < 0.95 || res.SelfShare > 1.05 {
		t.Errorf("self times add up to %v of %v s traced wall time", res.SelfShare, res.TracedWall)
	}
	if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

func TestCorruptedReferenceFailsTheCommand(t *testing.T) {
	var stderr bytes.Buffer
	res, err := measure(tinySpec, options{seed: 2, seconds: 0.01, corrupt: true}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := emit(res, options{}, &stdout, io.Discard); code == 0 {
		t.Error("exit code 0 although every result differs from its reference")
	}
	line := lastLine(t, stdout.String())
	if line["correct"] != false || line["failed"] != line["attempted"] || line["failed"] == float64(0) {
		t.Errorf("contract line %v: every operation should count as failed", line)
	}
	if !strings.Contains(stderr.String(), "differs from its reference") {
		t.Errorf("stderr %q", stderr.String())
	}
}

func TestFailedOperationsAreCountedAgainstAttempted(t *testing.T) {
	res := &result{Correct: true, Counts: map[string]int64{}}
	a := newAggregate(res)
	good := newRepOut()
	good.attempted = 10
	good.sample["run_s"] = 1
	good.exact["q3_csr"] = 0.25
	good.counts["events"] = 7
	a.add(good)
	bad := newRepOut()
	bad.attempted = 10
	bad.fail("request %d rejected", 3)
	bad.fail("request %d degraded", 4)
	bad.sample["run_s"] = 100 // a failed repetition's timings are not samples
	a.add(bad)
	if res.Attempted != 20 || res.Failed != 2 || res.Correct || len(res.Errors) != 2 {
		t.Errorf("attempted %d failed %d correct %v errors %v", res.Attempted, res.Failed, res.Correct, res.Errors)
	}
	if len(a.samples["run_s"]) != 1 {
		t.Errorf("samples %v", a.samples["run_s"])
	}

	// Exact values and counts that move between repetitions are failures of
	// the run even when every operation succeeded.
	res = &result{Correct: true, Counts: map[string]int64{}}
	a = newAggregate(res)
	a.add(good)
	drift := newRepOut()
	drift.exact["q3_csr"] = 0.26
	drift.counts["events"] = 8
	a.add(drift)
	if res.Correct || len(res.Errors) != 2 {
		t.Errorf("moving exact values: correct %v errors %v", res.Correct, res.Errors)
	}
}

func TestBenchmarkJSONAgreesWithTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name || contract.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, contract.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []bound, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != better {
				t.Errorf("%s metric %d: %+v vs %+v", kind, i, got[i], d)
			}
		}
	}
	check("end-to-end", contract.EndToEnd, endToEnd)
	check("per-layer", contract.PerLayer, perLayer)
}
