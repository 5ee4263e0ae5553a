package main

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// replyOrderGolden pins, per policy and named scenario, an FNV-64a hash of
// every slot's sim.StepInfo — Cold, Flips (in flip order) and Loaded — over
// seeds 1 and 2 with retraining on. A serving daemon's reply lists exactly
// these fields, so the hash pins the order of a reply's flips, which the
// equivalence tests (comparing aggregate results) cannot see: two wheels
// firing one slot's deadlines in different orders produce equal results and
// different replies. The constants were recorded on the append-bucket wheel
// the intrusive slab replaced: a mismatch means the firing order moved.
var replyOrderGolden = map[string]uint64{
	"SPES/steady":                0x7a4ea7129e0149c1,
	"SPES/drift":                 0xeb414fde6ae8dc31,
	"SPES/flashcrowd":            0x6276b52ab39fdf19,
	"SPES/churn":                 0x2290900fcb62b79d,
	"SPES/deploy-wave":           0x97ecffed7af8e499,
	"Fixed/steady":               0x1300cb004ba6d01d,
	"Fixed/drift":                0x5205e900ea61ec35,
	"Fixed/flashcrowd":           0xd3eecb8aaa20de6d,
	"Fixed/churn":                0x3bfb4a39f6da0cc5,
	"Fixed/deploy-wave":          0xe6ede20b0e5f45e9,
	"HybridFunction/steady":      0x2ac818a5ff479dc5,
	"HybridFunction/drift":       0x7bd6c18843575e05,
	"HybridFunction/flashcrowd":  0xd4b63f207d29e939,
	"HybridFunction/churn":       0xb2708245703a1611,
	"HybridFunction/deploy-wave": 0x4646d0dc2b0a9a6d,
	"Defuse/steady":              0x95f22e84cc88a7d,
	"Defuse/drift":               0x773037d2ed78789,
	"Defuse/flashcrowd":          0xb047023882b123d5,
	"Defuse/churn":               0x92c49102593f1e9,
	"Defuse/deploy-wave":         0x62213acf6deadba1,
}

var replyOrderPolicies = []struct {
	name string
	mk   func() sim.Policy
}{
	{"SPES", func() sim.Policy { return core.New(core.DefaultConfig()) }},
	{"Fixed", func() sim.Policy { return baselines.NewFixedKeepAlive(10) }},
	{"HybridFunction", func() sim.Policy { return baselines.NewHybridFunction() }},
	{"Defuse", func() sim.Policy { return baselines.NewDefuse() }},
}

// TestReplyOrderGolden drives each policy through a sim.Driver twice per
// workload — once stepping every slot (a daemon fed slot by slot), once
// stepping only the slots with invocations (the Driver skips the idle spans
// between them through NextWake) — and hashes each step's StepInfo.
func TestReplyOrderGolden(t *testing.T) {
	for _, scenario := range trace.ScenarioNames() {
		var workloads [][2]*trace.Trace
		for seed := int64(1); seed <= 2; seed++ {
			s := eqvSettings(seed)
			if err := s.ApplyScenario(scenario); err != nil {
				t.Fatal(err)
			}
			train, simTr := buildWorkload(t, s)
			workloads = append(workloads, [2]*trace.Trace{train, simTr})
		}
		for _, pol := range replyOrderPolicies {
			h := fnv.New64a()
			for _, w := range workloads {
				for _, everySlot := range []bool{true, false} {
					hashReplies(t, h, pol.mk(), w[0], w[1], everySlot)
				}
			}
			key := pol.name + "/" + scenario
			if got, want := h.Sum64(), replyOrderGolden[key]; got != want {
				t.Errorf("%s: reply-order hash %#x, want %#x", key, got, want)
			}
		}
	}
}

// hashReplies trains p and steps a retraining Driver through simTr — every
// slot, or only the occupied ones — writing each step's StepInfo into h.
func hashReplies(t *testing.T, h io.Writer, p sim.Policy, train, simTr *trace.Trace, everySlot bool) {
	t.Helper()
	p.Train(train)
	d := sim.NewDriver(p, simTr.NumFunctions(), sim.DriverConfig{
		CollectCold:   true,
		RetrainEvery:  1440,
		RetrainWindow: train.Slots,
		Window: func(t, w int) *trace.Trace {
			return sim.BuildRetrainWindow(train, simTr, t, w)
		},
	})
	idx := simTr.BuildSlotIndex()
	var buf []byte
	word := func(v int) { buf = binary.LittleEndian.AppendUint32(buf, uint32(v)) }
	for slot := 0; slot < simTr.Slots; slot++ {
		invs := idx.Invocations[slot]
		if !everySlot && len(invs) == 0 {
			continue
		}
		info, err := d.Step(slot, invs)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		word(slot)
		word(len(info.Cold))
		for _, f := range info.Cold {
			word(int(f))
		}
		word(len(info.Flips))
		for _, f := range info.Flips {
			word(int(f))
		}
		word(info.Loaded)
		h.Write(buf)
	}
}
