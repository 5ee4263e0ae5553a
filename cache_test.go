// ShardCache tests: a cache hit must reproduce the miss's result bit for
// bit, and invalidation must be exactly as fine-grained as the key — a
// config change on one policy re-runs only that policy's shards.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestShardCacheHitReproducesMiss runs the same sharded simulation twice
// through one cache: the first run misses every shard, the second hits
// every shard, and both results — and an uncached reference — are
// bit-identical.
func TestShardCacheHitReproducesMiss(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(11))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	ref, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	cache := openCache(t)
	opts := sim.Options{Shards: shards, Cache: cache}
	cold, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != shards {
		t.Fatalf("cold run stats = %+v, want 0 hits / %d misses", st, shards)
	}
	assertSameResult(t, "cold cached vs uncached", ref, cold)

	warm, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != shards || st.Misses != shards {
		t.Fatalf("warm run stats = %+v, want %d hits / %d misses", st, shards, shards)
	}
	assertSameResult(t, "warm hit vs cold miss", cold, warm)
}

// TestStreamedSweepMatchesMaterialized drives a streamed sweep —
// sim.RunStreamed per point through one Options.Cache: a theta sweep over a
// generator source must reproduce the materialized unsharded runs bit for
// bit, and a second (warm) pass must be served entirely from the cache — for a generator-backed source a hit is keyed
// on the derivation, so the warm pass never generates a shard at all.
func TestStreamedSweepMatchesMaterialized(t *testing.T) {
	s := eqvSettings(13)
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	src, err := experiments.StreamSource(s, shards)
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t)

	thetas := []int{1, 2}
	pass := func(label string) []*sim.Result {
		var out []*sim.Result
		for _, theta := range thetas {
			cfg := core.DefaultConfig()
			cfg.Classify.ThetaPrewarm = theta
			res, err := sim.RunStreamed(core.New(cfg), src, sim.Options{Cache: cache})
			if err != nil {
				t.Fatalf("%s theta=%d: %v", label, theta, err)
			}
			out = append(out, res)
		}
		return out
	}
	cold := pass("cold")
	for i, theta := range thetas {
		cfg := core.DefaultConfig()
		cfg.Classify.ThetaPrewarm = theta
		ref, err := sim.Run(core.New(cfg), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("streamed sweep theta=%d vs materialized", theta), ref, cold[i])
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != int64(len(thetas)*shards) {
		t.Fatalf("cold pass stats = %+v, want 0 hits / %d misses", st, len(thetas)*shards)
	}
	warm := pass("warm")
	if st := cache.Stats(); st.Hits != int64(len(thetas)*shards) {
		t.Fatalf("warm pass stats = %+v, want %d hits", st, len(thetas)*shards)
	}
	for i := range cold {
		assertSameResult(t, "warm streamed sweep point", cold[i], warm[i])
	}
}

// TestDiskCacheRestartReproducesCold simulates a sweep surviving a process
// restart: a cold streamed sweep through a cache, then the same sweep
// through a FRESH handle on the same entry directory — as a restarted
// process would open it — must be served entirely from the entry files and
// reproduce the cold results bit for bit.
func TestDiskCacheRestartReproducesCold(t *testing.T) {
	s := eqvSettings(17)
	const shards = 4
	dir := t.TempDir()
	thetas := []int{1, 3}

	sweepPass := func(label string) ([]*sim.Result, sim.CacheStats) {
		cache, err := sim.OpenShardCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		src, err := experiments.StreamSource(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		var out []*sim.Result
		for _, theta := range thetas {
			cfg := core.DefaultConfig()
			cfg.Classify.ThetaPrewarm = theta
			res, err := sim.RunStreamed(core.New(cfg), src, sim.Options{Cache: cache})
			if err != nil {
				t.Fatalf("%s theta=%d: %v", label, theta, err)
			}
			out = append(out, res)
		}
		return out, cache.Stats()
	}

	cold, coldSt := sweepPass("cold")
	if coldSt.Hits != 0 || coldSt.Misses != int64(len(thetas)*shards) {
		t.Fatalf("cold pass stats = %+v, want all misses", coldSt)
	}
	restart, restartSt := sweepPass("restart")
	if want := int64(len(thetas) * shards); restartSt.Hits != want || restartSt.Misses != 0 {
		t.Fatalf("restart pass stats = %+v, want %d hits / 0 misses", restartSt, want)
	}
	for i := range cold {
		assertSameResult(t, fmt.Sprintf("restart sweep theta=%d", thetas[i]), cold[i], restart[i])
	}
}

// TestDiskCacheCorruptEntriesAreMisses damages every persisted entry file —
// truncation for half, a flipped payload byte for the rest — and re-runs
// the sweep through a fresh handle on the damaged directory: every lookup
// must degrade to a miss and re-simulate, reproducing the undamaged results
// exactly. A wrong result here would mean the checksum/version verification
// let a damaged entry through — the one failure mode the cache must never
// have.
func TestDiskCacheCorruptEntriesAreMisses(t *testing.T) {
	s := eqvSettings(19)
	const shards = 3
	dir := t.TempDir()

	run := func() (*sim.Result, sim.CacheStats) {
		cache, err := sim.OpenShardCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		src, err := experiments.StreamSource(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunStreamed(core.New(core.DefaultConfig()), src, sim.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return res, cache.Stats()
	}

	clean, _ := run()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil || len(files) != shards {
		t.Fatalf("persisted entries = %v (err %v), want %d files", files, err, shards)
	}
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			data = data[:len(data)*2/3] // truncate
		} else {
			data[len(data)/2] ^= 0x01 // flip one payload byte
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	damaged, st := run()
	if st.Hits != 0 || st.Misses != shards {
		t.Fatalf("post-damage stats = %+v, want 0 hits / %d misses", st, shards)
	}
	assertSameResult(t, "re-simulated after entry damage", clean, damaged)
}

// TestShardCacheCorruptEntryMissesInProcess damages one entry file between
// two runs through the SAME handle: the cache holds nothing but its entry
// files, so the second run must miss exactly the damaged shard, hit the
// rest, and stay bit-identical; the re-simulated shard's store repairs the
// file, so a third run hits every shard.
func TestShardCacheCorruptEntryMissesInProcess(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(23))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	dir := t.TempDir()
	cache, err := sim.OpenShardCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Shards: shards, Cache: cache}
	run := func() *sim.Result {
		t.Helper()
		res, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil || len(files) != shards {
		t.Fatalf("persisted entries = %v (err %v), want %d files", files, err, shards)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := cache.Stats()
	assertSameResult(t, "run after one entry's damage", cold, run())
	after := cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != shards-1 || misses != 1 {
		t.Fatalf("run after damage: %d hits / %d misses, want %d / 1", hits, misses, shards-1)
	}
	assertSameResult(t, "run after repair", cold, run())
	if final := cache.Stats(); final.Hits-after.Hits != shards || final.Misses != after.Misses {
		t.Fatalf("run after repair: stats %+v (before it %+v), want %d more hits and no misses", final, after, shards)
	}
}

// TestShardCacheInvalidationIsPerPolicy shares one cache across a RunAll of
// three policies, then changes only SPES's configuration: the second sweep
// point must re-simulate exactly SPES's shards (misses) while both
// baselines are served entirely from the cache (hits), with the baseline
// results reproduced bit for bit.
func TestShardCacheInvalidationIsPerPolicy(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(12))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	cache := openCache(t)
	opts := sim.Options{Shards: shards, Cache: cache}

	pack := func(cfg core.Config) []sim.Policy {
		return []sim.Policy{
			core.New(cfg),
			baselines.NewFixedKeepAlive(10),
			baselines.NewDefuse(baselines.DefaultDefuseConfig()),
		}
	}

	first, err := sim.RunAll(pack(core.DefaultConfig()), train, simTr, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 3*shards {
		t.Fatalf("first point stats = %+v, want 0 hits / %d misses", st, 3*shards)
	}

	// The sweep moves: only SPES's config changes.
	swept := core.DefaultConfig()
	swept.Classify.ThetaPrewarm = 5
	second, err := sim.RunAll(pack(swept), train, simTr, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := cache.Stats()
	if hits := d.Hits - st.Hits; hits != 2*shards {
		t.Errorf("second point hits = %d, want %d (both baselines cached)", hits, 2*shards)
	}
	if misses := d.Misses - st.Misses; misses != shards {
		t.Errorf("second point misses = %d, want %d (only SPES re-runs)", misses, shards)
	}
	assertSameResult(t, "Fixed-10min across sweep points", first[1], second[1])
	assertSameResult(t, "Defuse across sweep points", first[2], second[2])
	if first[0].TotalMemory == second[0].TotalMemory && first[0].TotalColdStarts == second[0].TotalColdStarts {
		t.Error("theta change produced an identical SPES result; the sweep point is degenerate")
	}

	// Returning to the original config must hit SPES's original entries.
	third, err := sim.RunAll(pack(core.DefaultConfig()), train, simTr, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := cache.Stats()
	if misses := f.Misses - d.Misses; misses != 0 {
		t.Errorf("revisited point misses = %d, want 0", misses)
	}
	for i := range first {
		assertSameResult(t, "revisited point "+first[i].Policy, first[i], third[i])
	}
}
