package trace

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// ingestFixture writes a generated trace as CSV and ingests it into a fresh
// store under t.TempDir, returning the materialized ReadCSV trace (the
// reference the store must match bit for bit) alongside the store.
func ingestFixture(t *testing.T, shards, bufferedEvents int) (*Trace, *Store, *IngestStats) {
	t.Helper()
	tr := genSmall(t, 120, 2, 21)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	csv := buf.Bytes()

	ref, err := ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	store, stats, err := IngestCSV(bytes.NewReader(csv), filepath.Join(t.TempDir(), "store"),
		IngestOptions{Shards: shards, MaxBufferedEvents: bufferedEvents})
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	return ref, store, stats
}

// assertShardViewsEqual compares two shard views field by field (ShardView
// embeds a Trace with unexported memoization state, so DeepEqual on the
// whole struct would be fragile).
func assertShardViewsEqual(t *testing.T, label string, got, want *ShardView) {
	t.Helper()
	if got.Index != want.Index || got.Slots != want.Slots {
		t.Fatalf("%s: (index, slots) = (%d, %d), want (%d, %d)", label, got.Index, got.Slots, want.Index, want.Slots)
	}
	if !reflect.DeepEqual(got.Global, want.Global) {
		t.Fatalf("%s: global mapping differs", label)
	}
	if !reflect.DeepEqual(got.Functions, want.Functions) {
		t.Fatalf("%s: function metadata differs", label)
	}
	if !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatalf("%s: series differ", label)
	}
}

// TestIngestMatchesMaterialized is the partition-contract test: every shard
// the store serves must be bit-identical to ReadCSV + PartitionFunctions +
// ShardBy over the same CSV — in-memory and via the forced spill path.
func TestIngestMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		name     string
		buffered int
	}{
		{"in-memory", 0},
		{"spilled", 64}, // force many runs through the external scatter
	} {
		t.Run(tc.name, func(t *testing.T) {
			const shards = 4
			ref, store, stats := ingestFixture(t, shards, tc.buffered)
			if tc.buffered > 0 && stats.SpillRuns == 0 {
				t.Fatalf("buffer of %d events did not spill", tc.buffered)
			}
			if tc.buffered == 0 && stats.SpillRuns != 0 {
				t.Fatalf("default budget spilled %d runs on a toy trace", stats.SpillRuns)
			}
			if stats.Functions != ref.NumFunctions() || stats.Slots != ref.Slots {
				t.Fatalf("stats = %d funcs / %d slots, want %d / %d",
					stats.Functions, stats.Slots, ref.NumFunctions(), ref.Slots)
			}

			part := PartitionFunctions(ref.Functions, shards)
			for i := 0; i < shards; i++ {
				got, err := store.ShardTrace(i)
				if err != nil {
					t.Fatalf("ShardTrace(%d): %v", i, err)
				}
				assertShardViewsEqual(t, store.dir, got, ref.ShardBy(part, i))
			}
		})
	}
}

// TestStoreSourceSplit asserts Source(trainSlots).Shard returns exactly the
// split the materialized path produces, and that the source's dimensions
// follow the sim.Source contract.
func TestStoreSourceSplit(t *testing.T) {
	const shards, trainSlots = 3, slotsPerDay
	ref, store, _ := ingestFixture(t, shards, 0)
	src, err := store.Source(trainSlots)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumShards() != shards || src.NumFunctions() != ref.NumFunctions() || src.Slots() != ref.Slots-trainSlots {
		t.Fatalf("source dims = (%d, %d, %d), want (%d, %d, %d)",
			src.NumShards(), src.NumFunctions(), src.Slots(), shards, ref.NumFunctions(), ref.Slots-trainSlots)
	}

	trainRef, simRef := ref.Split(trainSlots)
	part := PartitionFunctions(ref.Functions, shards)
	for i := 0; i < shards; i++ {
		train, sim, err := src.Shard(i)
		if err != nil {
			t.Fatalf("Shard(%d): %v", i, err)
		}
		assertShardViewsEqual(t, "train", train, trainRef.ShardBy(part, i))
		assertShardViewsEqual(t, "sim", sim, simRef.ShardBy(part, i))
	}

	if _, err := store.Source(-1); err == nil {
		t.Error("negative train split accepted")
	}
	if _, err := store.Source(store.Slots()); err == nil {
		t.Error("train split consuming the whole trace accepted")
	}
}

// TestStoreFingerprints asserts shard fingerprints are distinct across
// shards and split points, and stable across a reopen — they feed
// ShardCache/DiskCache keys, so instability would poison caches and
// collisions would alias entries.
func TestStoreFingerprints(t *testing.T) {
	_, store, _ := ingestFixture(t, 3, 0)
	src, err := store.Source(slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i := 0; i < store.NumShards(); i++ {
		fp, ok := src.ShardFingerprint(i)
		if !ok {
			t.Fatalf("shard %d: no fingerprint", i)
		}
		if j, dup := seen[fp]; dup {
			t.Fatalf("shards %d and %d share fingerprint %016x", j, i, fp)
		}
		seen[fp] = i
	}

	other, err := store.Source(slotsPerDay / 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := src.ShardFingerprint(0); func() bool { b, _ := other.ShardFingerprint(0); return a == b }() {
		t.Error("different train splits share a fingerprint")
	}

	reopened, err := OpenStore(store.Dir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	src2, err := reopened.Source(slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < store.NumShards(); i++ {
		a, _ := src.ShardFingerprint(i)
		b, _ := src2.ShardFingerprint(i)
		if a != b {
			t.Fatalf("shard %d fingerprint changed across reopen", i)
		}
	}
}

// TestStoreCorruptionDegrades is the torn-file test: every corruption — a
// flipped byte anywhere, a truncated shard file, a truncated or missing
// manifest, a missing shard file, a version skew — must surface as an error
// wrapping ErrStoreCorrupt with no shard content, never a wrong shard.
func TestStoreCorruptionDegrades(t *testing.T) {
	_, store, _ := ingestFixture(t, 2, 0)
	shardPath := filepath.Join(store.Dir(), shardFileName(0))
	pristine, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(shardPath, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	expectCorrupt := func(label string) {
		t.Helper()
		st, err := OpenStore(store.Dir())
		if err != nil {
			if !errors.Is(err, ErrStoreCorrupt) {
				t.Fatalf("%s: OpenStore error %v does not wrap ErrStoreCorrupt", label, err)
			}
			return
		}
		sv, err := st.ShardTrace(0)
		if err == nil {
			t.Fatalf("%s: corrupt shard decoded successfully", label)
		}
		if !errors.Is(err, ErrStoreCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrStoreCorrupt", label, err)
		}
		if sv != nil {
			t.Fatalf("%s: error AND shard content returned", label)
		}
	}

	// Flipped bytes: header, column payloads, footer — sampled across the
	// whole file so every verification layer gets exercised.
	for _, off := range []int{0, 9, 40, len(pristine) / 3, len(pristine) / 2, len(pristine) - 6, len(pristine) - 1} {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 0x40
		if err := os.WriteFile(shardPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCorrupt("flip at " + string(rune('0'+off%10)))
	}

	// Torn writes: every truncation length must fail, including cutting
	// inside the header, a column block, and the footer.
	for _, n := range []int{0, 7, 30, len(pristine) / 4, len(pristine) - 4, len(pristine) - 1} {
		if err := os.WriteFile(shardPath, pristine[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		expectCorrupt("truncate")
	}
	restore()

	// A missing shard file fails at open (the manifest names it).
	if err := os.Remove(shardPath); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(store.Dir()); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("missing shard file: OpenStore error %v does not wrap ErrStoreCorrupt", err)
	}
	restore()

	// Manifest corruption and absence fail at open.
	manifestPath := filepath.Join(store.Dir(), manifestName)
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, manifest[:len(manifest)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(store.Dir()); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("truncated manifest: OpenStore error %v does not wrap ErrStoreCorrupt", err)
	}
	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(store.Dir()); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("missing manifest: OpenStore error %v does not wrap ErrStoreCorrupt", err)
	}
}

// TestStoreGoldenBytes pins the shard-file and manifest encodings to digests
// recorded from the encoders before they moved onto internal/durable: stores
// already ingested must keep opening, so the bytes may only change together
// with storeVersion.
func TestStoreGoldenBytes(t *testing.T) {
	_, store, _ := ingestFixture(t, 2, 0)
	for _, tc := range []struct {
		name   string
		size   int
		sha256 string
	}{
		{shardFileName(0), 247421, "5bc00a20f439d31777ace4b9d98bb9f5ca9093478a6b17b9ea696bf06131aea8"},
		{shardFileName(1), 155211, "79748e0205cbeb64cc4a63a2ef87acd685c1909c314d5482b2220424646f1c69"},
		{manifestName, 72, "eb470f71086c9f66b9ef23a4edbd8f2039effbceda309aea194ecf9e329f8069"},
	} {
		data, err := os.ReadFile(filepath.Join(store.Dir(), tc.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != tc.size || got != tc.sha256 {
			t.Errorf("%s is %d bytes hashing to %s, want %d bytes hashing to %s", tc.name, len(data), got, tc.size, tc.sha256)
		}
	}

	// The encoder is sized exactly: re-encoding a decoded shard yields its
	// file with no spare capacity, so the buffer never regrew.
	for i := 0; i < store.NumShards(); i++ {
		sv, err := store.ShardTrace(i)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(filepath.Join(store.Dir(), shardFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		file := encodeShardFile(sv, store.NumShards(), store.meta[i].Events, store.meta[i].ContentFP)
		if !bytes.Equal(file, disk) || cap(file) != len(file) {
			t.Errorf("shard %d re-encodes to %d bytes (capacity %d), file is %d", i, len(file), cap(file), len(disk))
		}
	}
}

// TestIngestReplacesStore asserts re-ingesting into the same directory
// yields a fresh consistent store (the manifest is the commit point).
func TestIngestReplacesStore(t *testing.T) {
	tr := genSmall(t, 60, 2, 7)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	csv := buf.Bytes()
	dir := filepath.Join(t.TempDir(), "store")
	if _, _, err := IngestCSV(bytes.NewReader(csv), dir, IngestOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	// Re-ingest with a different shard count: the old manifest must not
	// survive alongside, and the new store must verify end to end.
	store, _, err := IngestCSV(bytes.NewReader(csv), dir, IngestOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if store.NumShards() != 2 {
		t.Fatalf("shards = %d, want 2", store.NumShards())
	}
	for i := 0; i < 2; i++ {
		if _, err := store.ShardTrace(i); err != nil {
			t.Fatalf("shard %d after re-ingest: %v", i, err)
		}
	}
}

// TestIngestEmptyCSV documents the degenerate case: an empty input ingests
// to an empty but openable store.
func TestIngestEmptyCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store, stats, err := IngestCSV(bytes.NewReader(nil), dir, IngestOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Functions != 0 || stats.Events != 0 || store.NumFunctions() != 0 {
		t.Fatalf("empty ingest produced %d functions / %d events", stats.Functions, stats.Events)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatalf("empty store does not reopen: %v", err)
	}
}

// ingestWorkload is the shape of the benchmark's ingest-store workload: a
// 1000-function, 6-day Azure-schema CSV (~1.8M events, ~17 MB) ingested into
// 8 shards through a 1Mi-event buffer, so one run spills.
func ingestWorkload(tb testing.TB) ([]byte, IngestOptions) {
	tb.Helper()
	tr, err := Generate(DefaultGeneratorConfig(1000, 6, 1))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), IngestOptions{Shards: 8, MaxBufferedEvents: 1 << 20}
}

// TestIngestAllocationBudget holds an ingest to what it keeps: the scanner
// allocates nothing per row and each function's strings once, the spill
// buffer doubles up to the budget, and the shard stage reuses one spill
// read buffer and one event arena, leaving the encoded files as the only
// per-shard allocation. A per-row record, append-grown buffers, a
// per-event scatter record or a buffer per shard each break the bound.
func TestIngestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	csv, opts := ingestWorkload(t)
	dir := filepath.Join(t.TempDir(), "store")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, stats, err := IngestCSV(bytes.NewReader(csv), dir, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpillRuns == 0 {
		t.Fatalf("%d events did not spill through a %d-event buffer", stats.Events, opts.MaxBufferedEvents)
	}
	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%.1f MB CSV, %d events, %d spill runs: %.1f MB and %d objects allocated, %.1f MB stored",
		float64(len(csv))/1e6, stats.Events, stats.SpillRuns, float64(got)/1e6, objects, float64(stats.StoreBytes)/1e6)
	const maxBytes, maxObjects = 80_000_000, 50_000
	if got > maxBytes || objects > maxObjects {
		t.Fatalf("ingest allocated %d bytes in %d objects, budget %d bytes and %d objects", got, objects, maxBytes, maxObjects)
	}
}

// BenchmarkIngestCSV times one ingest of the ingest-store workload's CSV:
// B/op is the whole pass's allocation.
func BenchmarkIngestCSV(b *testing.B) {
	csv, opts := ingestWorkload(b)
	dir := filepath.Join(b.TempDir(), "store")
	b.ReportAllocs()
	b.SetBytes(int64(len(csv)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := IngestCSV(bytes.NewReader(csv), dir, opts); err != nil {
			b.Fatal(err)
		}
	}
}
