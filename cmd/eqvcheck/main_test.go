package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eqv"
)

// describe renders what a parsed command line runs: the workload, the
// assertions around the matrix, and each row as roster: reference ->
// engines.
func describe(c *config) string {
	m := c.m
	var b strings.Builder
	fmt.Fprintf(&b, "fn=%d days=%d/%d sparse=%t seeds=%v scenario=%q retrain=%d trace=%q pool=%d maxheap=%d",
		m.Settings.Functions, m.Settings.TrainDays, m.Settings.Days, m.Settings.TriggerMix != nil, m.Seeds, m.Settings.Scenario.Name,
		m.RetrainEvery, m.Trace, c.pool, c.maxHeap)
	for _, r := range m.Rows {
		var names []string
		for _, p := range r.Policies {
			names = append(names, p.Name)
		}
		fmt.Fprintf(&b, "\n%s: %s -> %v", strings.Join(names, ","), r.Ref, r.Engines)
	}
	return b.String()
}

// TestParseCIInvocations: every eqvcheck command line in
// .github/workflows/ci.yml parses to the matrix it has always run.
func TestParseCIInvocations(t *testing.T) {
	const (
		capStream = "FaaSCache,LCS: event -> [streamed x2 streamed x5 streamed x16]"
		spes2     = "SPES: dense -> [event default sharded x2 streamed x2]"
		spes3     = "SPES: dense -> [event default sharded x3 streamed x3]"
		spes4     = "SPES: dense -> [event default sharded x4 streamed x4]"
	)
	for _, c := range []struct{ args, want string }{
		{"-stream -capacity",
			`fn=400 days=6/8 sparse=false seeds=[1 2 3] scenario="" retrain=0 trace="" pool=133 maxheap=0` +
				"\n" + capStream + "\n" + spes4},
		{"-functions 600 -scenario drift -retrain-every 1440 -shards 2 -stream -seeds 2",
			`fn=600 days=6/8 sparse=false seeds=[1 2] scenario="drift" retrain=1440 trace="" pool=200 maxheap=0` +
				"\n" + spes2},
		{"-functions 600 -scenario churn -retrain-every 1440 -shards 2 -stream -seeds 2",
			`fn=600 days=6/8 sparse=false seeds=[1 2] scenario="churn" retrain=1440 trace="" pool=200 maxheap=0` +
				"\n" + spes2},
		{"-streamonly -functions 100000 -sparse -shards 16 -seeds 1 -maxheap 450000000",
			`fn=100000 days=6/8 sparse=true seeds=[1] scenario="" retrain=0 trace="" pool=33333 maxheap=450000000` +
				"\nSPES: streamed x16 -> [streamed x32]"},
		{"-ingest testdata/azure_sample.csv -train-days 3 -shards 4",
			`fn=400 days=3/8 sparse=false seeds=[] scenario="" retrain=0 trace="testdata/azure_sample.csv" pool=133 maxheap=0` +
				"\nSPES,FixedKeepAlive: event -> [sharded x4 store (cold) x4 store (warm) x4]"},
		{"-functions 300 -days 6 -train-days 4 -seeds 2 -shards 3 -stream -scenario churn -retrain-every 1440",
			`fn=300 days=4/6 sparse=false seeds=[1 2] scenario="churn" retrain=1440 trace="" pool=100 maxheap=0` +
				"\n" + spes3},
		{"-functions 300 -days 6 -train-days 4 -seeds 2 -shards 3 -stream -capacity",
			`fn=300 days=4/6 sparse=false seeds=[1 2] scenario="" retrain=0 trace="" pool=100 maxheap=0` +
				"\n" + capStream + "\n" + spes3},
		// Not in CI: the default, and -capacity over the materialized pair.
		{"",
			`fn=400 days=6/8 sparse=false seeds=[1 2 3] scenario="" retrain=0 trace="" pool=133 maxheap=0` +
				"\nSPES: dense -> [event default sharded x4]"},
		{"-capacity -shards 0 -seeds 1",
			`fn=400 days=6/8 sparse=false seeds=[1] scenario="" retrain=0 trace="" pool=133 maxheap=0` +
				"\nFaaSCache,LCS: event -> [sharded x2 sharded x5 sharded x16]\nSPES: dense -> [event default]"},
	} {
		cfg, err := parse(strings.Fields(c.args))
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if got := describe(cfg); got != c.want {
			t.Errorf("%q parses to\n%s\nwant\n%s", c.args, got, c.want)
		}
	}
}

// TestParseRejects: every bad value or combination is an error from parse,
// before any work starts.
func TestParseRejects(t *testing.T) {
	const csv = "-ingest testdata/azure_sample.csv -train-days 3 "
	for _, args := range []string{
		csv + "-stream", csv + "-streamonly", csv + "-capacity", csv + "-scenario drift",
		csv + "-retrain-every 1440",
		csv + "-shards 1", csv + "-shards -1",
		"-functions 0", "-days 6 -train-days 6", "-scenario nosuch",
		"-seeds 0", "-shards -1",
		"-stream -shards 1",
		"-streamonly -capacity", "-streamonly -stream",
		"-retrain-every -1",
		"-streamonly -shards 0",
	} {
		if _, err := parse(strings.Fields(args)); err == nil {
			t.Errorf("%q: parsed, want an error", args)
		}
	}
}

// TestMismatchExitsOne: a matrix holding one wrong answer must print the
// mismatch under its row label and exit 1.
func TestMismatchExitsOne(t *testing.T) {
	c, err := parse(strings.Fields("-functions 100 -days 3 -train-days 2 -seeds 1 -shards 2"))
	if err != nil {
		t.Fatal(err)
	}
	spes := &c.m.Rows[0].Policies[0]
	spes.Dense = eqv.FlipLoaded(spes.Dense, 30)
	var out bytes.Buffer
	if code := exitCode(c.run(&out)); code != 1 || !strings.Contains(out.String(), "seed 1: SPES: event vs dense: MISMATCH") {
		t.Fatalf("exit %d, stdout:\n%s", code, out.String())
	}
}
