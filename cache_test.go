// ShardCache tests: a hit reproduces the miss bit for bit, a damaged entry
// is a miss, and invalidation is exactly as fine-grained as the key.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eqv"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestShardCacheHitReproducesMiss runs one sharded simulation through a
// cache twice: the first run misses every shard and matches an uncached
// run, the second hits every shard and matches the first.
func TestShardCacheHitReproducesMiss(t *testing.T) {
	check(t, small("", 11), []eqv.Policy{eqv.SPES()}, eqv.Sharded(4).Cold(), eqv.Sharded(4), eqv.Sharded(4).Warm())
}

// theta is SPES with the given pre-warm threshold: one sweep point.
func theta(th int) eqv.Policy {
	cfg := core.DefaultConfig()
	cfg.Classify.ThetaPrewarm = th
	return eqv.Policy{Name: fmt.Sprintf("SPES theta=%d", th), New: func() sim.Policy { return core.New(cfg) }}
}

// TestStreamedSweepMatchesMaterialized: a theta sweep streamed through a
// cache matches the materialized runs, and its warm pass is all hits — keyed
// on the source's derivation, so it generates no shard at all.
func TestStreamedSweepMatchesMaterialized(t *testing.T) {
	check(t, small("", 13), []eqv.Policy{theta(1), theta(2)}, eqv.Streamed(4).Cold(), eqv.Event, eqv.Streamed(4).Warm())
}

// TestDiskCacheRestartReproducesCold: a fresh handle on a cold sweep's
// directory, as a restarted process opens it, serves the whole sweep.
func TestDiskCacheRestartReproducesCold(t *testing.T) {
	check(t, small("", 17), []eqv.Policy{theta(1), theta(3)}, eqv.Streamed(4).Cold(), eqv.Streamed(4).Warm())
}

// traffic fails t unless cache served exactly hits and misses since before.
func traffic(t *testing.T, label string, cache *sim.ShardCache, before sim.CacheStats, hits, misses int64) {
	t.Helper()
	st := cache.Stats()
	if h, m := st.Hits-before.Hits, st.Misses-before.Misses; h != hits || m != misses {
		t.Fatalf("%s: %d hits / %d misses, want %d / %d", label, h, m, hits, misses)
	}
}

// damage truncates the entry file at path to two thirds, or flips one of
// its payload bytes.
func damage(t *testing.T, path string, truncate bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncate {
		data = data[:len(data)*2/3]
	} else {
		data[len(data)/2] ^= 0x01
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// entries lists dir's shard entry files, failing t unless there are n.
func entries(t *testing.T, dir string, n int) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil || len(files) != n {
		t.Fatalf("persisted entries = %v (err %v), want %d files", files, err, n)
	}
	return files
}

// TestDiskCacheCorruptEntriesAreMisses truncates half the entry files and
// flips a payload byte in the rest: every lookup through a fresh handle must
// miss and re-simulate the undamaged result. A wrong result would be a
// damaged entry let through — the one failure the cache must never have.
func TestDiskCacheCorruptEntriesAreMisses(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	run := func(label string, hits, misses int64) *sim.Result {
		cache, err := sim.OpenShardCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		src, err := experiments.StreamSource(eqvSettings(19), shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunStreamed(core.New(core.DefaultConfig()), src, sim.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		traffic(t, label, cache, sim.CacheStats{}, hits, misses)
		return res
	}
	clean := run("clean run", 0, shards)
	for i, path := range entries(t, dir, shards) {
		damage(t, path, i%2 == 0)
	}
	assertSameResult(t, "re-simulated after entry damage", clean, run("run after damage", 0, shards))
}

// TestShardCacheCorruptEntryMissesInProcess damages one entry between two
// runs through the SAME handle: the second misses exactly that shard, and
// its store repairs the file, so a third hits every shard.
func TestShardCacheCorruptEntryMissesInProcess(t *testing.T) {
	train, simTr := buildWorkload(t, eqvSettings(23))
	const shards = 4
	dir := t.TempDir()
	cache, err := sim.OpenShardCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(label string, hits, misses int64) *sim.Result {
		t.Helper()
		before := cache.Stats()
		res, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: shards, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		traffic(t, label, cache, before, hits, misses)
		return res
	}
	cold := run("cold run", 0, shards)
	damage(t, entries(t, dir, shards)[0], false)
	assertSameResult(t, "run after one entry's damage", cold, run("run after damage", shards-1, 1))
	assertSameResult(t, "run after repair", cold, run("run after repair", shards, 0))
}

// TestShardCacheInvalidationIsPerPolicy: when a sweep over one RunAll of
// three policies changes only SPES's configuration, only SPES's shards
// re-simulate; the baselines are served their entries bit for bit.
func TestShardCacheInvalidationIsPerPolicy(t *testing.T) {
	train, simTr := buildWorkload(t, eqvSettings(12))
	const shards = 3
	cache, err := sim.OpenShardCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	point := func(label string, cfg core.Config, hits, misses int64) []*sim.Result {
		t.Helper()
		before := cache.Stats()
		res, err := sim.RunAll([]sim.Policy{core.New(cfg), baselines.NewFixedKeepAlive(10),
			baselines.NewDefuse(baselines.DefaultDefuseConfig())}, train, simTr, sim.Options{Shards: shards, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		traffic(t, label, cache, before, hits, misses)
		return res
	}
	first := point("first point", core.DefaultConfig(), 0, 3*shards)

	// The sweep moves: only SPES's config changes, so only its shards re-run.
	swept := core.DefaultConfig()
	swept.Classify.ThetaPrewarm = 5
	second := point("second point", swept, 2*shards, shards)
	assertSameResult(t, "Fixed-10min across sweep points", first[1], second[1])
	assertSameResult(t, "Defuse across sweep points", first[2], second[2])
	if first[0].TotalMemory == second[0].TotalMemory && first[0].TotalColdStarts == second[0].TotalColdStarts {
		t.Error("theta change produced an identical SPES result; the sweep point is degenerate")
	}

	// Returning to the original config must hit SPES's original entries.
	third := point("revisited point", core.DefaultConfig(), 3*shards, 0)
	for i := range first {
		assertSameResult(t, "revisited point "+first[i].Policy, first[i], third[i])
	}
}
