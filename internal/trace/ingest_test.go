package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultinject"
)

// ingestFixture writes a generated trace as CSV and ingests it into a fresh
// store under t.TempDir, returning the materialized ReadCSV trace (the
// reference the store must match bit for bit) alongside the store.
func ingestFixture(t *testing.T, shards, bufferedEvents int) (*Trace, *Store, *IngestStats) {
	t.Helper()
	return ingestSeeded(t, 21, shards, bufferedEvents)
}

// ingestSeeded is ingestFixture over the population generated from seed.
func ingestSeeded(t *testing.T, seed int64, shards, bufferedEvents int) (*Trace, *Store, *IngestStats) {
	t.Helper()
	tr := genSmall(t, 120, 2, seed)
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
		{"spilled", 64}, // force many spills through the gather
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

// storeFiles reads every file an ingest left in dir, by name.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestIngestByteIdenticalAcrossWidths holds the shard stage's fan-out to the
// serial ingest: at GOMAXPROCS 1, 2 and 8, over 1, 3 and 8 shards, spilled
// and in memory, every shard file and the manifest equal the GOMAXPROCS 1
// store's byte for byte, and IngestStats equals its stats apart from the
// wall times. Under injected write faults an ingest fails with the same
// error at widths 1 and 4 (FanOut returns the lowest failing shard's) and
// commits no manifest.
func TestIngestByteIdenticalAcrossWidths(t *testing.T) {
	tr := genSmall(t, 120, 2, 21)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	csv := buf.Bytes()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ingest := func(procs int, opts IngestOptions, fs durable.FS) (string, *IngestStats, error) {
		runtime.GOMAXPROCS(procs)
		dir := filepath.Join(t.TempDir(), "store")
		_, stats, err := IngestCSVFS(bytes.NewReader(csv), dir, opts, fs)
		if stats != nil {
			stats.PassWall, stats.ShardsWall = 0, 0
		}
		return dir, stats, err
	}

	// Budgets: in memory; a spill every few rows; two thirds of the trace,
	// so one spill and a buffer each shard gathers from.
	events := 0
	for _, s := range tr.Series {
		events += len(s)
	}
	for _, shards := range []int{1, 3, 8} {
		for _, buffered := range []int{0, 64, 2 * events / 3} {
			opts := IngestOptions{Shards: shards, MaxBufferedEvents: buffered}
			var want map[string][]byte
			var wantStats IngestStats
			for _, procs := range []int{1, 2, 8} {
				dir, stats, err := ingest(procs, opts, durable.OS{})
				if err != nil {
					t.Fatalf("%+v at GOMAXPROCS %d: %v", opts, procs, err)
				}
				if (buffered > 0) != (stats.SpillRuns > 0) {
					t.Fatalf("%+v: %d spills", opts, stats.SpillRuns)
				}
				files := storeFiles(t, dir)
				if procs == 1 {
					want, wantStats = files, *stats
					continue
				}
				if !reflect.DeepEqual(*stats, wantStats) {
					t.Errorf("%+v at GOMAXPROCS %d: stats %+v, want %+v", opts, procs, *stats, wantStats)
				}
				if len(files) != len(want) {
					t.Errorf("%+v at GOMAXPROCS %d: %d files, want %d", opts, procs, len(files), len(want))
				}
				for name, data := range want {
					if !bytes.Equal(files[name], data) {
						t.Errorf("%+v at GOMAXPROCS %d: %s differs from the serial ingest's", opts, procs, name)
					}
				}
			}
		}
	}

	failed := 0
	for seed := int64(1); seed <= 6; seed++ {
		opts := IngestOptions{Shards: 8, MaxBufferedEvents: 64}
		var errs [2]string
		for k, procs := range []int{1, 4} {
			inj := faultinject.New(seed, faultinject.Config{WriteErr: 150, RenameErr: 100})
			dir, _, err := ingest(procs, opts, inj.FS())
			if err == nil {
				continue
			}
			errs[k] = err.Error()
			if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
				t.Errorf("seed %d at GOMAXPROCS %d: a failed ingest left a manifest (stat: %v)", seed, procs, err)
			}
		}
		if errs[0] != errs[1] {
			t.Errorf("seed %d: width 1 fails with %q, width 4 with %q", seed, errs[0], errs[1])
		}
		if errs[0] != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no injected write fault failed an ingest")
	}
}

// FuzzIngestCSV holds IngestCSV to ReadCSV on any input: the same error
// text, or a store whose every shard equals ReadCSV + PartitionFunctions +
// ShardBy. knobs draws the shard count (1-4) and a spill budget of 1-64
// events, so small inputs take the spill path too.
func FuzzIngestCSV(f *testing.F) {
	for _, in := range readCSVSeeds() {
		f.Add([]byte(in), uint8(0))
		f.Add([]byte(in), uint8(0xff))
	}
	f.Fuzz(func(t *testing.T, in []byte, knobs uint8) {
		shards, budget := 1+int(knobs%4), 1+int(knobs/4)
		ref, refErr := ReadCSV(bytes.NewReader(in))
		store, _, err := IngestCSV(bytes.NewReader(in), filepath.Join(t.TempDir(), "store"),
			IngestOptions{Shards: shards, MaxBufferedEvents: budget})
		if refErr != nil || err != nil {
			if refErr == nil || err == nil || err.Error() != refErr.Error() {
				t.Fatalf("IngestCSV error %v, ReadCSV error %v", err, refErr)
			}
			return
		}
		assertStoreMatches(t, fmt.Sprintf("%d shards, budget %d", shards, budget), store, ref)
	})
}

// assertStoreMatches holds every shard of store to ReadCSV +
// PartitionFunctions + ShardBy's over the materialized trace ref.
func assertStoreMatches(t *testing.T, label string, store *Store, ref *Trace) {
	t.Helper()
	part := PartitionFunctions(ref.Functions, store.NumShards())
	for i := 0; i < store.NumShards(); i++ {
		got, err := store.ShardTrace(i)
		if err != nil {
			t.Fatalf("%s: ShardTrace(%d): %v", label, i, err)
		}
		want := ref.ShardBy(part, i)
		if len(want.Global) == 0 {
			want.Global = []FuncID{} // an empty shard decodes to an empty mapping, not nil
		}
		assertShardViewsEqual(t, label, got, want)
	}
}

// TestIngestGatherEdges holds the gather to ReadCSV + PartitionFunctions +
// ShardBy at GOMAXPROCS 1, 2 and 8 where the row index and the spill meet:
// a function whose first row arrives after a spill, a row longer than the
// budget, a budget of one event (every non-empty row is a spill of its own)
// and rows with no events, one function having nothing but those.
func TestIngestGatherEdges(t *testing.T) {
	header := csvHeader()
	// f1 and f4 share app a1, f2 and f5 share user u2: three shards hold
	// rows that interleave in the file.
	day := func(rows ...string) string { return header + strings.Join(rows, "") }
	events := func(from, n int) map[int]string {
		counts := map[int]string{}
		for k := range n {
			counts[from+3*k] = strconv.Itoa(1 + k%4)
		}
		return counts
	}
	f1 := func(n int) string { return csvRow("u1", "a1", "f1", "http", events(0, n)) }
	f2 := func(n int) string { return csvRow("u2", "a2", "f2", "timer", events(1, n)) }
	f3 := func(n int) string { return csvRow("u3", "a3", "f3", "queue", events(2, n)) }
	f4 := func(n int) string { return csvRow("u1", "a1", "f4", "http", events(5, n)) }
	f5 := func(n int) string { return csvRow("u2", "a5", "f5", "event", events(7, n)) }
	for _, tc := range []struct {
		name   string
		csv    string
		budget int
		spills int
	}{
		{"first row after a spill", day(f1(5), f2(2), f3(1)) + day(f1(2), f2(3), f4(4), f3(2)) + day(f5(6), f4(1), f1(1)), 4, 4},
		{"row longer than the budget", day(f1(3), f2(300), f3(2)) + day(f2(1), f1(400), f3(4)), 16, 2},
		{"one-event budget", day(f1(2), f2(1), f3(3), f4(1)) + day(f4(2), f1(1), f5(1), f3(1), f2(2)), 1, 9},
		{"rows with no events", day(f1(0), f2(3), f3(0), f4(2)) + day(f3(0), f2(0), f1(4), f5(0), f4(0)) + day(f2(5), f3(0)), 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := ReadCSV(strings.NewReader(tc.csv))
			if err != nil {
				t.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				store, stats, err := IngestCSV(strings.NewReader(tc.csv), filepath.Join(t.TempDir(), "store"),
					IngestOptions{Shards: 3, MaxBufferedEvents: tc.budget})
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				if stats.SpillRuns != tc.spills {
					t.Fatalf("GOMAXPROCS %d: %d spills, want %d", procs, stats.SpillRuns, tc.spills)
				}
				assertStoreMatches(t, fmt.Sprintf("GOMAXPROCS %d", procs), store, ref)
			}
		})
	}
}

// TestGatherReportsTruncatedSpill cuts the spill file one event short after
// pass 1: the shard whose rows run past the cut fails with an error naming
// the file and the shard, and no view, while the other shard, whose rows
// the cut spared, still assembles.
func TestGatherReportsTruncatedSpill(t *testing.T) {
	fns := []Function{{ID: 0, App: "a0", User: "u0"}, {ID: 1, App: "a1", User: "u1"}}
	part := PartitionFunctions(fns, 2)
	sp := &ingestSpill{dir: t.TempDir(), budget: 5}
	defer sp.close()
	for d := range int32(4) {
		for fid := range FuncID(2) {
			evs := []Event{{Slot: d*slotsPerDay + 1, Count: 1}, {Slot: d*slotsPerDay + 9, Count: 2}, {Slot: d*slotsPerDay + 70, Count: 1}}
			if err := sp.add(fid, evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	info, err := sp.file.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.file.Truncate(info.Size() - eventSize); err != nil {
		t.Fatal(err)
	}
	cut := part.ShardOf(sp.rows[sp.fileRows-1].fid)
	sw := newShardWorker(12, true)
	for i := range 2 {
		sv, _, err := sw.assemble(fns, part, i, 4*slotsPerDay, sp)
		if i != cut {
			if err != nil || len(sv.Series[0]) != 12 {
				t.Fatalf("shard %d, before the cut: %v", i, err)
			}
			continue
		}
		if err == nil || sv != nil {
			t.Fatalf("shard %d past the cut: view %v, error %v", i, sv, err)
		}
		if msg := err.Error(); !strings.Contains(msg, spillName) || !strings.Contains(msg, fmt.Sprintf("shard %d", i)) {
			t.Fatalf("error %q names neither %s nor shard %d", msg, spillName, i)
		}
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
// shards and split points, and stable across a reopen.
func TestStoreFingerprints(t *testing.T) {
	_, store, _ := ingestFixture(t, 3, 0)
	src, err := store.Source(slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i := 0; i < store.NumShards(); i++ {
		fp := src.ShardFingerprint(i)
		if j, dup := seen[fp]; dup {
			t.Fatalf("shards %d and %d share fingerprint %016x", j, i, fp)
		}
		seen[fp] = i
	}

	other, err := store.Source(slotsPerDay / 2)
	if err != nil {
		t.Fatal(err)
	}
	if src.ShardFingerprint(0) == other.ShardFingerprint(0) {
		t.Error("different train splits share a fingerprint")
	}

	reopened, err := OpenStore(store.dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	src2, err := reopened.Source(slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < store.NumShards(); i++ {
		if src.ShardFingerprint(i) != src2.ShardFingerprint(i) {
			t.Fatalf("shard %d fingerprint changed across reopen", i)
		}
	}
}

// TestStoreCorruptionDegrades is the torn-file test: every corruption — a
// flipped byte anywhere, a truncated shard file, a truncated or missing
// manifest, a missing shard file, a foreign, swapped or resealed shard file,
// a version skew — must surface as an error wrapping ErrStoreCorrupt with no
// shard content, never a wrong shard.
func TestStoreCorruptionDegrades(t *testing.T) {
	_, store, _ := ingestFixture(t, 2, 0)
	shardPath := filepath.Join(store.dir, shardFileName(0))
	pristine, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(shardPath, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// expectCorrupt returns the error that OpenStore or shard 0's read failed with.
	expectCorrupt := func(label string) error {
		t.Helper()
		st, err := OpenStore(store.dir)
		if err != nil {
			if !errors.Is(err, ErrStoreCorrupt) {
				t.Fatalf("%s: OpenStore error %v does not wrap ErrStoreCorrupt", label, err)
			}
			return err
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
		return err
	}
	// expectCaught writes file as shard 0 and expects its read to fail with
	// an error naming want.
	expectCaught := func(label string, file []byte, want string) {
		t.Helper()
		if err := os.WriteFile(shardPath, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := expectCorrupt(label); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name %q", label, err, want)
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
	if _, err := OpenStore(store.dir); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("missing shard file: OpenStore error %v does not wrap ErrStoreCorrupt", err)
	}
	restore()

	// Whole files that verify on their own but are not the ones the manifest
	// records. Shard 0 of a second store of the same shape:
	_, other, _ := ingestSeeded(t, 22, 2, 0)
	if other.NumShards() != store.NumShards() || other.Slots() != store.Slots() {
		t.Fatalf("second store has %d shards over %d slots, want %d over %d", other.NumShards(), other.Slots(), store.NumShards(), store.Slots())
	}
	foreign, err := os.ReadFile(filepath.Join(other.dir, shardFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	expectCaught("foreign shard", foreign, "not the one the manifest records")
	// Shard files 0 and 1 swapped:
	shard1Path := filepath.Join(store.dir, shardFileName(1))
	shard1, err := os.ReadFile(shard1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard1Path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	expectCaught("swapped shards", shard1, "not the one the manifest records")
	if err := os.WriteFile(shard1Path, shard1, 0o644); err != nil {
		t.Fatal(err)
	}
	// One event count rewritten and the file sealed again: its length and
	// seal verify, so only the binding to the manifest catches it.
	tampered := bytes.Clone(pristine)
	at := columnPayload(tampered, colEventCounts)
	binary.LittleEndian.PutUint32(tampered[at:], binary.LittleEndian.Uint32(tampered[at:])+1)
	expectCaught("resealed tamper", reseal(storeMagic, tampered), "not the one the manifest records")
	restore()

	// A version skew that passes every CRC: a shard file at format version
	// 1, sealed, with a manifest that records its new seal, and then a
	// manifest at version 1. Both fail on the version, and the remedy is to
	// re-ingest.
	manifestPath := filepath.Join(store.dir, manifestName)
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	const skew = "format version 1, want 2"
	v1 := bytes.Clone(pristine)
	binary.LittleEndian.PutUint32(v1[len(storeMagic):], 1)
	v1 = reseal(storeMagic, v1)
	recorded := *store
	recorded.meta = slices.Clone(store.meta)
	recorded.meta[0].CRC = sealCRC(v1)
	if err := os.WriteFile(manifestPath, encodeManifest(&recorded), 0o644); err != nil {
		t.Fatal(err)
	}
	expectCaught("version-1 shard", v1, skew)
	restore()
	v1 = bytes.Clone(manifest)
	binary.LittleEndian.PutUint32(v1[len(storeManifestTag):], 1)
	if err := os.WriteFile(manifestPath, reseal(storeManifestTag, v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := expectCorrupt("version-1 manifest"); !strings.Contains(err.Error(), skew) {
		t.Fatalf("version-1 manifest: error %q does not name %q", err, skew)
	}

	// Manifest corruption and absence fail at open.
	if err := os.WriteFile(manifestPath, manifest[:len(manifest)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(store.dir); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("truncated manifest: OpenStore error %v does not wrap ErrStoreCorrupt", err)
	}
	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(store.dir); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("missing manifest: OpenStore error %v does not wrap ErrStoreCorrupt", err)
	}
}

// columnPayload returns the offset of column id's payload in a shard file.
func columnPayload(file []byte, id uint32) int {
	at := len(storeMagic) + 28 // the header
	for binary.LittleEndian.Uint32(file[at:]) != id {
		at += 12 + int(binary.LittleEndian.Uint64(file[at+4:]))
	}
	return at + 12
}

// reseal seals a sealed file's bytes again under magic, after an edit.
func reseal(magic string, file []byte) []byte {
	return seal(magic, file[len(magic):len(file)-4])
}

// TestStoreGoldenBytes pins the shard-file and manifest encodings to digests
// recorded at format version 2: stores already ingested must keep opening,
// so the bytes may only change together with storeVersion.
func TestStoreGoldenBytes(t *testing.T) {
	_, store, _ := ingestFixture(t, 2, 0)
	for _, tc := range []struct {
		name   string
		size   int
		sha256 string
	}{
		{shardFileName(0), 247381, "f3bb23e49a7b659bcbe086c03b8cd01e2b2bac04ad262226ab8bcaa336b4ddbd"},
		{shardFileName(1), 155171, "e23d828b806ee67be3122fd477329d7ae92dfd968b724d94261de071d4b2d06f"},
		{manifestName, 80, "5ae11ce1f7e311e93b5327d7c9c50f80ebafe9049e800b19567ddc204a40d547"},
	} {
		data, err := os.ReadFile(filepath.Join(store.dir, tc.name))
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
		disk, err := os.ReadFile(filepath.Join(store.dir, shardFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		file := encodeShardFile(nil, sv, store.NumShards(), store.meta[i].Events)
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

// TestIngestAllocationBudget holds an ingest to what it keeps: the row
// pass allocates nothing per row or per block (its two block buffers and
// their event slices are reused) and each function's strings once, the spill
// buffer doubles up to the budget, the row index costs 8 bytes a row, and
// each shard-stage worker reuses one read chunk, one event arena and one
// file buffer. A per-row allocation, append-grown buffers, a decode buffer
// or a buffer per shard each break the bound. Each shard-stage worker adds
// its own scratch (~4.6 MB here), so the test pins GOMAXPROCS to 2, two
// workers, where it measures 34.1 MB and 5.8 k objects (32.9 MB before the
// row pass's two 256 KiB blocks); the bound leaves room for one more
// worker's scratch.
func TestIngestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
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
	t.Logf("%.1f MB CSV, %d events, %d spills: %.1f MB and %d objects allocated, %.1f MB stored",
		float64(len(csv))/1e6, stats.Events, stats.SpillRuns, float64(got)/1e6, objects, float64(stats.StoreBytes)/1e6)
	const maxBytes, maxObjects = 40_000_000, 8_000
	if got > maxBytes || objects > maxObjects {
		t.Fatalf("ingest allocated %d bytes in %d objects, budget %d bytes and %d objects", got, objects, maxBytes, maxObjects)
	}
}

// TestIngestInMemoryAllocation holds the ingest that never spills to one
// event buffer of 8-byte events, which each shard gathers from in place.
// At GOMAXPROCS 2, which the test pins because each shard-stage worker adds
// its own scratch (~4.6 MB), it measures 50.1 MB for this workload (the
// 1000 × 6 CSV into 8 shards, default budget); when a 12-byte record was
// grouped by shard in place it measured 66 MB, and when that grouping
// copied the buffer 87.3 MB. The bound leaves room for one more worker's
// scratch.
func TestIngestInMemoryAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	csv, opts := ingestWorkload(t)
	opts.MaxBufferedEvents = 0
	dir := filepath.Join(t.TempDir(), "store")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, stats, err := IngestCSV(bytes.NewReader(csv), dir, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpillRuns != 0 {
		t.Fatalf("%d events spilled %d runs under the default budget", stats.Events, stats.SpillRuns)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d events, no spill: %.1f MB allocated", stats.Events, float64(got)/1e6)
	const maxBytes = 56_000_000
	if got > maxBytes {
		t.Fatalf("in-memory ingest allocated %d bytes, bound %d", got, maxBytes)
	}
}

// sparseIngestWorkload is a many-short-rows CSV: the sparse trigger mix,
// 6000 functions × 8 days (~8M events, ~133 MB), ingested into 16 shards
// through the ingest-store workload's 1Mi-event buffer, so most rows are
// gathered out of the spill file a few events per read.
func sparseIngestWorkload(tb testing.TB) ([]byte, IngestOptions) {
	tb.Helper()
	cfg := DefaultGeneratorConfig(6000, 8, 1)
	cfg.TriggerMix = SparseTriggerMix()
	tr, err := Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), IngestOptions{Shards: 16, MaxBufferedEvents: 1 << 20}
}

// BenchmarkIngestCSV times one ingest of each CSV: dense is the
// ingest-store workload's, sparse the many-short-rows one. B/op is the
// whole pass's allocation. rowstream is ReadCSV of the dense CSV alone:
// the row pass without the spill and the shard stage, beside the whole
// ingest.
func BenchmarkIngestCSV(b *testing.B) {
	for _, tc := range []struct {
		name     string
		workload func(testing.TB) ([]byte, IngestOptions)
	}{
		{"dense", ingestWorkload},
		{"sparse", sparseIngestWorkload},
	} {
		b.Run(tc.name, func(b *testing.B) {
			csv, opts := tc.workload(b)
			dir := filepath.Join(b.TempDir(), "store")
			b.ReportAllocs()
			b.SetBytes(int64(len(csv)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := IngestCSV(bytes.NewReader(csv), dir, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("rowstream", func(b *testing.B) {
		csv, _ := ingestWorkload(b)
		b.ReportAllocs()
		b.SetBytes(int64(len(csv)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSV(bytes.NewReader(csv)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
