package spes_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/spes"
)

func TestEndToEndSPES(t *testing.T) {
	full, err := spes.GenerateTrace(spes.DefaultGeneratorConfig(200, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	train, simTr := full.Split(3 * 1440)
	policy := spes.NewSPES(spes.DefaultSPESConfig())
	res, err := spes.Run(policy, train, simTr, spes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "SPES" {
		t.Errorf("policy = %s", res.Policy)
	}
	if res.Functions != 200 || res.Slots != 1440 {
		t.Errorf("shape = %d funcs, %d slots", res.Functions, res.Slots)
	}
	if q3 := res.QuantileCSR(0.75); q3 < 0 || q3 > 1 {
		t.Errorf("Q3-CSR = %v", q3)
	}
	// Every function carries a type. The run cloned policy per shard, so
	// the labels are read from the Result.
	for f := 0; f < res.Functions; f++ {
		if res.Types[f] == "" {
			t.Fatalf("func %d has empty type", f)
		}
	}
}

func TestBaselineConstructors(t *testing.T) {
	full, err := spes.GenerateTrace(spes.DefaultGeneratorConfig(100, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	train, simTr := full.Split(1440)
	policies := []spes.Policy{
		spes.NewFixedKeepAlive(10),
		spes.NewHybridFunction(),
		spes.NewHybridApplication(),
		spes.NewDefuse(),
		spes.NewFaaSCache(20),
		spes.NewLCS(20),
	}
	names := map[string]bool{}
	for _, p := range policies {
		r, err := spes.Run(p, train, simTr, spes.Options{})
		if err != nil {
			t.Fatal(err)
		}
		names[r.Policy] = true
	}
	for _, want := range []string{"Fixed-10min", "Hybrid-Function", "Hybrid-Application", "Defuse", "FaaSCache", "LCS"} {
		if !names[want] {
			t.Errorf("missing result for %s", want)
		}
	}
}

// TestUnshardableErrorViaFacade: a caller outside the module matches the
// sharded engine's refusal through the facade's sentinel.
func TestUnshardableErrorViaFacade(t *testing.T) {
	full, err := spes.GenerateTrace(spes.DefaultGeneratorConfig(50, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	train, simTr := full.Split(1440)
	// Embedding the interface hides every capability but Policy's methods.
	bare := struct{ spes.Policy }{spes.NewFixedKeepAlive(10)}
	_, err = spes.Run(bare, train, simTr, spes.Options{Shards: 2})
	if !errors.Is(err, spes.ErrNotShardable) {
		t.Errorf("got %v, want errors.Is spes.ErrNotShardable", err)
	}
}

func TestTraceCSVRoundTripViaFacade(t *testing.T) {
	full, err := spes.GenerateTrace(spes.DefaultGeneratorConfig(50, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, full); err != nil {
		t.Fatal(err)
	}
	back, err := spes.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalInvocations() != full.TotalInvocations() {
		t.Errorf("invocations: %d != %d", back.TotalInvocations(), full.TotalInvocations())
	}
}

func TestManualTraceConstruction(t *testing.T) {
	tr := spes.NewTrace(100)
	id := tr.AddFunction("f", "app", "user", spes.TriggerHTTP,
		[]spes.Event{{Slot: 10, Count: 2}})
	if id != 0 || tr.NumFunctions() != 1 {
		t.Errorf("manual construction failed")
	}
}
