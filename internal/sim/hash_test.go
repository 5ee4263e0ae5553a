package sim

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

type hashCfgA struct {
	Theta  int
	Ratio  float64
	Flags  []bool
	Nested hashCfgB
}

type hashCfgB struct {
	Name string
	Caps []int
}

func TestHashConfigStableAndSensitive(t *testing.T) {
	base := hashCfgA{Theta: 2, Ratio: 0.5, Flags: []bool{true, false}, Nested: hashCfgB{Name: "x", Caps: []int{1, 2}}}
	if HashConfig(base) != HashConfig(base) {
		t.Fatal("hash not deterministic")
	}
	mutations := []hashCfgA{base, base, base, base, base}
	mutations[0].Theta = 3
	mutations[1].Ratio = 0.25
	mutations[2].Flags = []bool{true, true}
	mutations[3].Nested.Name = "y"
	mutations[4].Nested.Caps = []int{1}
	seen := map[uint64]bool{HashConfig(base): true}
	for i, m := range mutations {
		h := HashConfig(m)
		if seen[h] {
			t.Errorf("mutation %d collided with a previous hash", i)
		}
		seen[h] = true
	}

	// Slice boundaries are delimited: moving an element across a nested
	// slice boundary must change the hash.
	a := hashCfgA{Flags: []bool{true}, Nested: hashCfgB{Caps: []int{7}}}
	b := hashCfgA{Flags: []bool{true, false}, Nested: hashCfgB{Caps: []int{7}}}
	if HashConfig(a) == HashConfig(b) {
		t.Error("length change not reflected in hash")
	}
}

func TestHashConfigRejectsUnhashableKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("HashConfig over a map should panic: maps have no canonical order")
		}
	}()
	HashConfig(struct{ M map[string]int }{M: map[string]int{"a": 1}})
}

// TestShardSetFingerprintCoversContent holds a materialized shard's cache
// fingerprint to its content: changing one train event or one sim event
// changes the key, and a pair with no training half keys differently from
// one whose training half is empty.
func TestShardSetFingerprintCoversContent(t *testing.T) {
	fp := func(train, simTr *trace.Trace) uint64 {
		return buildShardSet(train, simTr, 1).ShardFingerprint(0)
	}
	// bump returns a copy of tr with one more invocation in function 4's
	// first event; tr itself is left as it was.
	bump := func(tr *trace.Trace) *trace.Trace {
		c := &trace.Trace{Slots: tr.Slots, Functions: tr.Functions, Series: slices.Clone(tr.Series)}
		c.Series[4] = slices.Clone(c.Series[4])
		c.Series[4][0].Count++
		return c
	}
	train, simTr := capTestTrace()
	base := fp(train, simTr)
	if fp(train, simTr) != base {
		t.Fatal("fingerprint not deterministic")
	}
	if fp(bump(train), simTr) == base {
		t.Error("changing one train event left the fingerprint unchanged")
	}
	if fp(train, bump(simTr)) == base {
		t.Error("changing one sim event left the fingerprint unchanged")
	}
	empty := &trace.Trace{Functions: simTr.Functions, Series: make([]trace.Series, simTr.NumFunctions())}
	if fp(nil, simTr) == fp(empty, simTr) {
		t.Error("no training half and an empty training half share a fingerprint")
	}
}
