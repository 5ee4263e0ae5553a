package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/trace"
)

// testEntry builds a representative shard entry exercising every encoded
// field, including negative-looking values and the nil-vs-present Types
// distinction.
func testEntry(typed bool) (shardKey, *shardEntry) {
	key := shardKey{policy: "SPES", config: 0xdeadbeefcafef00d, trace: 42, slots: 3}
	res := &Result{
		Policy:           "SPES",
		Slots:            3,
		Functions:        2,
		PerFunc:          []FuncMetrics{{Invocations: 7, InvokedSlot: 3, ColdStarts: 1, WMTMinutes: 9}, {Invocations: 1, InvokedSlot: 1}},
		TotalInvocations: 8,
		TotalInvokedSlot: 4,
		TotalColdStarts:  1,
		TotalWMT:         9,
		TotalMemory:      5,
		MaxLoaded:        2,
		EMCRSum:          1.25,
		EMCRSlots:        3,
		Overhead:         17 * time.Microsecond,
	}
	if typed {
		res.Types = []string{"periodic", "rare"}
	}
	return key, &shardEntry{
		res:    res,
		log:    &slotLog{loaded: []int32{1, 2, 1}, active: []int32{1, 1, 0}},
		global: []trace.FuncID{3, 9},
	}
}

// sameEntry compares a decoded entry against the original field by field.
func sameEntry(t *testing.T, want, got *shardEntry) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Errorf("Result round trip: got %+v, want %+v", got.res, want.res)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		t.Errorf("slotLog round trip: got %+v, want %+v", got.log, want.log)
	}
	if !reflect.DeepEqual(want.global, got.global) {
		t.Errorf("global round trip: got %v, want %v", got.global, want.global)
	}
}

// TestDiskEntryRoundTrip: encode/decode must reproduce the entry bit for
// bit, for both typed and untyped results (the merge distinguishes nil
// Types from present ones).
func TestDiskEntryRoundTrip(t *testing.T) {
	for _, typed := range []bool{true, false} {
		key, ent := testEntry(typed)
		got, err := decodeEntry(key, encodeEntry(key, ent))
		if err != nil {
			t.Fatalf("typed=%v: decode: %v", typed, err)
		}
		sameEntry(t, ent, got)
		if !typed && got.res.Types != nil {
			t.Error("untyped entry decoded with non-nil Types")
		}
	}
}

// TestDiskEntryWideTypeDictionary exercises the 2-byte index width of the
// type dictionary (more than 256 distinct labels — impossible for the real
// categorizers, but the encoding must round-trip it anyway).
func TestDiskEntryWideTypeDictionary(t *testing.T) {
	key, ent := testEntry(true)
	n := 300
	ent.res.PerFunc = make([]FuncMetrics, n)
	ent.res.Types = make([]string, n)
	ent.global = make([]trace.FuncID, n)
	for i := 0; i < n; i++ {
		ent.res.Types[i] = fmt.Sprintf("label-%03d", i)
		ent.global[i] = trace.FuncID(i)
	}
	got, err := decodeEntry(key, encodeEntry(key, ent))
	if err != nil {
		t.Fatal(err)
	}
	sameEntry(t, ent, got)
}

// TestDiskEntryGoldenBytes pins the entry encoding to digests recorded from
// the encoder before it moved onto internal/durable: entries already on
// disk (CI carries the directory across runs) must keep decoding, so the
// bytes may only change together with diskVersion.
func TestDiskEntryGoldenBytes(t *testing.T) {
	wide := func() (shardKey, *shardEntry) {
		key, ent := testEntry(true)
		ent.res.PerFunc = make([]FuncMetrics, 300)
		ent.res.Types = make([]string, 300)
		ent.global = make([]trace.FuncID, 300)
		for i := range ent.global {
			ent.res.Types[i] = fmt.Sprintf("label-%03d", i)
			ent.global[i] = trace.FuncID(i)
		}
		return key, ent
	}
	for _, tc := range []struct {
		name   string
		entry  func() (shardKey, *shardEntry)
		sha256 string
	}{
		{"typed", func() (shardKey, *shardEntry) { return testEntry(true) }, "58a99438ec79d0cbba68261bb7a7f102f67d4b638a4e3038d0ac153eb2fbe2a6"},
		{"untyped", func() (shardKey, *shardEntry) { return testEntry(false) }, "d5d5910b52515bbc049848a1c8c44b70aebe5ab42bbf1ac306baf3ed84d0f252"},
		{"two-byte dictionary indices", wide, "0abad5cefe0e66f0fb6d3bd8767728e8883283b763449500602a32b4c86d363d"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(encodeEntry(tc.entry()))); got != tc.sha256 {
			t.Errorf("%s: entry bytes hash to %s, want %s", tc.name, got, tc.sha256)
		}
	}
}

// TestDiskEntryVersionMismatch: an entry written by a different format
// version must be rejected — with a version error, not misread.
func TestDiskEntryVersionMismatch(t *testing.T) {
	key, ent := testEntry(true)
	buf := encodeEntry(key, ent)
	// Patch the version field and re-stamp the checksum so the version
	// check — not the corruption check — is what rejects the file.
	binary.LittleEndian.PutUint32(buf[len(diskMagic):], diskVersion+1)
	restamp(buf)
	_, err := decodeEntry(key, buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("decode of future-version entry: %v, want a version error", err)
	}
}

// TestDiskEntryEngineEpochMismatch: an entry computed under a different
// engine epoch (a commit that changed simulation semantics) must be
// rejected even though its serialization format and key match.
func TestDiskEntryEngineEpochMismatch(t *testing.T) {
	key, ent := testEntry(true)
	buf := encodeEntry(key, ent)
	binary.LittleEndian.PutUint32(buf[len(diskMagic)+4:], engineEpoch+1)
	restamp(buf)
	_, err := decodeEntry(key, buf)
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("decode of other-epoch entry: %v, want an epoch error", err)
	}
}

// TestDiskEntryCorruption: any flipped byte anywhere in the file must fail
// the checksum (or a structural check) — a corrupt entry may cost a miss
// but can never produce a wrong result.
func TestDiskEntryCorruption(t *testing.T) {
	key, ent := testEntry(true)
	clean := encodeEntry(key, ent)
	for _, off := range []int{0, len(diskMagic) + 1, len(clean) / 2, len(clean) - 5, len(clean) - 1} {
		buf := append([]byte(nil), clean...)
		buf[off] ^= 0x40
		if _, err := decodeEntry(key, buf); err == nil {
			t.Errorf("flip at offset %d: decode succeeded, want rejection", off)
		}
	}
}

// TestDiskEntryTruncation: every proper prefix must be rejected, not
// partially decoded.
func TestDiskEntryTruncation(t *testing.T) {
	key, ent := testEntry(true)
	clean := encodeEntry(key, ent)
	for _, n := range []int{0, 4, len(diskMagic) + 4, len(clean) / 3, len(clean) - 1} {
		if _, err := decodeEntry(key, clean[:n]); err == nil {
			t.Errorf("truncation to %d bytes: decode succeeded, want rejection", n)
		}
	}
}

// TestDiskEntryKeyMismatch: a file whose embedded key differs from the one
// the reader derived (a filename hash collision) must be a miss.
func TestDiskEntryKeyMismatch(t *testing.T) {
	key, ent := testEntry(true)
	buf := encodeEntry(key, ent)
	other := key
	other.config++
	if _, err := decodeEntry(other, buf); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("decode under a different key: %v, want a key mismatch error", err)
	}
}

// TestDiskCacheLoadDegradesToMiss: through the ShardCache file layer, a
// corrupted or truncated file is a plain miss (nil, nil), and a store
// overwrites it.
func TestDiskCacheLoadDegradesToMiss(t *testing.T) {
	d, err := OpenShardCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, ent := testEntry(true)
	if err := d.save(key, ent); err != nil {
		t.Fatal(err)
	}
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := d.load(key)
	if got != nil || err != nil {
		t.Fatalf("load of truncated entry = (%v, %v), want a plain miss", got, err)
	}
	if err := d.save(key, ent); err != nil {
		t.Fatal(err)
	}
	got, err = d.load(key)
	if err != nil || got == nil {
		t.Fatalf("reload after overwrite = (%v, %v), want the entry back", got, err)
	}
	sameEntry(t, ent, got)
}

// TestOpenDiskCacheCreatesDir: the directory (including parents) is
// created on open; an empty path is rejected.
func TestOpenDiskCacheCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	if _, err := OpenShardCache(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("entry directory not created: %v", err)
	}
	if _, err := OpenShardCache(""); err == nil {
		t.Fatal("OpenShardCache(\"\") succeeded, want an error")
	}
}

// restamp recomputes the trailing checksum after a deliberate header
// patch, reusing the encoder's checksum.
func restamp(buf []byte) {
	binary.LittleEndian.PutUint32(buf[len(buf)-4:],
		durable.Checksum(buf[:len(buf)-4]))
}
