package baselines

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

var (
	_ sim.CapacityPolicy = (*FaaSCache)(nil)
	_ sim.CapacityPolicy = (*LCS)(nil)
	_ sim.ConfigHasher   = (*FaaSCache)(nil)
	_ sim.ConfigHasher   = (*LCS)(nil)
)

// tieTrace builds the adversarial tie workload: 8 functions, each its own
// app and user, all invoked together so scores tie exactly. Full-trace slots: 1 (all), 3 (all),
// 5 (f0..f2); split at 1, so sim slots 0, 2, 4.
func tieTrace(t *testing.T) (train, simTr *trace.Trace) {
	t.Helper()
	full := trace.NewTrace(6)
	for i := 0; i < 8; i++ {
		events := []trace.Event{{Slot: 1, Count: 1}, {Slot: 3, Count: 1}}
		if i < 3 {
			events = append(events, trace.Event{Slot: 5, Count: 1})
		}
		full.AddFunction(
			string(rune('a'+i)), "app"+string(rune('0'+i)), "user"+string(rune('0'+i)),
			trace.TriggerHTTP, events)
	}
	return full.Split(1)
}

// TestCapacityTieBreak pins the eviction order among equal scores. With
// capacity 5 and all 8 functions invoked together, every score ties (equal
// GDSF priority, equal LRU recency), so the victims are decided purely by
// the FuncID rule: slots 0 and 2 must evict f0,f1,f2 (lowest FuncIDs among
// the tie), making them — and only them — cold again at the next round.
// Options.Shards must not change any of it: a capacity policy runs over the
// whole population whatever the shard count.
func TestCapacityTieBreak(t *testing.T) {
	train, simTr := tieTrace(t)
	// Slot 0: all 8 cold, pool over budget, tie → f0,f1,f2 evicted.
	// Slot 2: all invoked again → exactly f0,f1,f2 cold; ties again →
	// f0,f1,f2 evicted again.
	// Slot 4: f0,f1,f2 invoked → cold again; their refreshed scores now
	// beat the rest, so f3,f4,f5 go instead.
	wantCold := []int64{3, 3, 3, 1, 1, 1, 1, 1}

	for _, mk := range []func() sim.Policy{
		func() sim.Policy { return NewFaaSCache(5) },
		func() sim.Policy { return NewLCS(5) },
	} {
		ref, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for fid, want := range wantCold {
			if got := ref.PerFunc[fid].ColdStarts; got != want {
				t.Errorf("%s unsharded: f%d cold starts = %d, want %d (FuncID tie-break)",
					ref.Policy, fid, got, want)
			}
		}
		for _, shards := range []int{2, 3} {
			got, err := sim.Run(mk(), train, simTr, sim.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for fid := range wantCold {
				if got.PerFunc[fid] != ref.PerFunc[fid] {
					t.Errorf("%s x%d: f%d per-func %+v, want %+v",
						ref.Policy, shards, fid, got.PerFunc[fid], ref.PerFunc[fid])
				}
			}
			if got.TotalColdStarts != ref.TotalColdStarts || got.TotalWMT != ref.TotalWMT ||
				got.TotalMemory != ref.TotalMemory || got.MaxLoaded != ref.MaxLoaded {
				t.Errorf("%s x%d: totals diverge: %+v vs %+v", ref.Policy, shards, got, ref)
			}
		}
	}
}

// TestCapacityConfigHashSeparation asserts the capacity baselines'
// ConfigHash covers both the capacity and the engine choice: different
// capacities and different policies must never share a hash.
func TestCapacityConfigHashSeparation(t *testing.T) {
	hashes := map[uint64]string{}
	for _, c := range []struct {
		label string
		hash  uint64
	}{
		{"faascache-10", NewFaaSCache(10).ConfigHash()},
		{"faascache-20", NewFaaSCache(20).ConfigHash()},
		{"lcs-10", NewLCS(10).ConfigHash()},
		{"lcs-20", NewLCS(20).ConfigHash()},
	} {
		if prev, ok := hashes[c.hash]; ok {
			t.Errorf("%s collides with %s", c.label, prev)
		}
		hashes[c.hash] = c.label
	}
	if NewFaaSCache(10).ConfigHash() != NewFaaSCache(10).ConfigHash() {
		t.Error("FaaSCache hash not stable")
	}
}
