package sim

import "testing"

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
