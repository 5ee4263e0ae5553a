package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/durable"
)

// The columnar shard store: the on-disk format IngestCSV produces and
// StoreSource serves. A store directory holds one file per app/user-closed
// shard plus a manifest, so re-running a simulation over a real trace skips
// the CSV parse entirely — the warm path reads only the shard files it is
// about to simulate.
//
// Robustness rule: a store read may only ever
// produce bit-exact shard content or an error — never a wrong shard. Every
// file is a durable envelope (versioned magic header, whole-file CRC-32C
// footer) with a CRC-32C per column block inside; a truncated, bit-flipped,
// version-skewed, or structurally inconsistent file fails verification with
// an error wrapping ErrStoreCorrupt, and the caller's remedy is to re-ingest
// the CSV. Writes go through durable.Commit, with the manifest written last,
// so a crash mid-ingest leaves a directory that fails OpenStore rather than
// a store missing shards.
//
// Shard file layout (all integers little-endian):
//
//	magic[8] | version u32 | shard u32 | shards u32 | slots u32 |
//	functions u32 | events u64 | contentFP u64 |
//	column blocks | footer magic[8] | file CRC-32C u32
//
// Each column block is `id u32 | length u64 | payload | CRC-32C u32` with a
// fixed id sequence (globals, names, apps, users, triggers, series lengths,
// event slots, event counts). App, user, and trigger labels are
// dictionary-encoded — the Azure trace repeats each app hash once per
// function and each trigger label thousands of times (durable.Enc.Dict).
// Event slots and counts are flat int32 columns across all of the shard's
// functions, delimited by the series-length column.
const (
	storeMagic       = "SPESCOL\x00"
	storeFooterMagic = "SPESEND\x00"
	storeManifestTag = "SPESMAN\x00"
	storeVersion     = uint32(1)
	manifestName     = "manifest.spm"
	storeTmpPattern  = ".tmp-store-*"
)

// Column block ids, in file order.
const (
	colGlobals = uint32(iota + 1)
	colNames
	colApps
	colUsers
	colTriggers
	colSeriesLens
	colEventSlots
	colEventCounts
	numColumns = iota
)

// ErrStoreCorrupt reports a columnar store that failed verification —
// truncated, bit-flipped, version-skewed, or structurally inconsistent.
// Callers match it with errors.Is and degrade to re-ingesting the CSV; a
// failed verification never yields shard content.
var ErrStoreCorrupt = errors.New("trace: columnar shard store corrupt or incomplete (re-ingest the CSV)")

// storeFP computes the store fingerprint domains. The shard domain is
// distinct from sim's "generator-derivation" one, so a store shard and a
// generated shard never share a fingerprint.
const (
	fpDomainContent = "store-content\x00" // whole-shard content hash, stored in the file
	fpDomainShard   = "store-shard\x00"   // (content, split) hash ShardFingerprint returns
)

// shardFileName returns shard i's file name within a store directory.
func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.spc", i) }

// ContentHash hashes the view's content: slot span, the local-to-global id
// mapping, per-function metadata, and every event. Two views may share a
// hash only if they are bit-identical, which is what lets a store file
// carry it as its checksum of record.
//
// The hash is FNV-1a over one byte stream: the domain tag, the slot span
// and function count, then per function its global id, name, app and user
// (each NUL-terminated), trigger byte and event count, then its events as
// (slot, count) uint32 pairs; integers are little-endian. Each function's
// header is encoded into one stack block, sized for three 64-character
// Azure hashes, and written at once, and each event through the same
// block, so hashing allocates nothing. Events are written one at a time:
// FNV-1a's multiply per byte bounds the time, and encoding 64 events per
// write measured slower.
func (sv *ShardView) ContentHash() uint64 {
	h := fnv.New64a()
	var blk [256]byte
	b := append(blk[:0], fpDomainContent...)
	b = binary.LittleEndian.AppendUint64(b, uint64(sv.Slots))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(sv.Functions)))
	for li, f := range sv.Functions {
		b = binary.LittleEndian.AppendUint64(b, uint64(sv.Global[li]))
		b = append(append(b, f.Name...), 0)
		b = append(append(b, f.App...), 0)
		b = append(append(b, f.User...), 0, byte(f.Trigger))
		s := sv.Series[li]
		h.Write(binary.LittleEndian.AppendUint64(b, uint64(len(s))))
		for _, e := range s {
			h.Write(binary.LittleEndian.AppendUint64(blk[:0], uint64(uint32(e.Slot))|uint64(uint32(e.Count))<<32))
		}
		b = blk[:0]
	}
	h.Write(b) // the view's header, when no function carried it
	return h.Sum64()
}

func hashU64(h io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// shardFileFixed is a shard file's size beside its columns' payloads: the
// header after the magic (36 bytes), each column block's id, length and CRC
// (16 bytes), the footer magic and the file CRC.
const shardFileFixed = 36 + 16*numColumns + len(storeFooterMagic) + 4

// encodeShardFile serializes one full (unsplit) shard view into the
// columnar format. events is the total event count across the shard's
// series; fp is the shard's content fingerprint. The file is encoded into
// dst's storage when it fits there, and otherwise into one allocation
// sized to the file exactly.
func encodeShardFile(dst []byte, sv *ShardView, shards int, events int64, fp uint64) []byte {
	nf := len(sv.Functions)
	apps, users, trigs := make([]string, nf), make([]string, nf), make([]string, nf)
	// Globals, name lengths and series lengths are 4 bytes per function;
	// event slots and counts 4 bytes each per event.
	size := shardFileFixed + 12*nf + 8*int(events)
	for i, f := range sv.Functions {
		apps[i], users[i], trigs[i] = f.App, f.User, f.Trigger.String()
		size += len(f.Name)
	}
	size += durable.DictSize(apps) + durable.DictSize(users) + durable.DictSize(trigs)
	if size += len(storeMagic); cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	e := &durable.Enc{B: append(dst[:0], storeMagic...)}
	e.U32(storeVersion)
	e.U32(uint32(sv.Index))
	e.U32(uint32(shards))
	e.U32(uint32(sv.Slots))
	e.U32(uint32(nf))
	e.U64(uint64(events))
	e.U64(fp)

	// block frames what fill appends as one column: the length is patched in
	// once the payload is there to measure.
	block := func(id uint32, fill func()) {
		e.U32(id)
		at := len(e.B)
		e.U64(0)
		fill()
		payload := e.B[at+8:]
		binary.LittleEndian.PutUint64(e.B[at:], uint64(len(payload)))
		e.U32(durable.Checksum(payload))
	}

	block(colGlobals, func() {
		for _, g := range sv.Global {
			e.U32(uint32(g))
		}
	})
	block(colNames, func() {
		for _, f := range sv.Functions {
			e.Str(f.Name)
		}
	})
	block(colApps, func() { e.Dict(apps) })
	block(colUsers, func() { e.Dict(users) })
	block(colTriggers, func() { e.Dict(trigs) })
	block(colSeriesLens, func() {
		for _, s := range sv.Series {
			e.U32(uint32(len(s)))
		}
	})
	block(colEventSlots, func() {
		for _, s := range sv.Series {
			for _, ev := range s {
				e.U32(uint32(ev.Slot))
			}
		}
	})
	block(colEventCounts, func() {
		for _, s := range sv.Series {
			for _, ev := range s {
				e.U32(uint32(ev.Count))
			}
		}
	})

	e.B = append(e.B, storeFooterMagic...)
	return e.Seal()
}

// decodeShardFile verifies and decodes one shard file. Any failure returns
// an error wrapping ErrStoreCorrupt; wantShard/wantShards/wantSlots come
// from the manifest, so a renamed or cross-store file is rejected too.
func decodeShardFile(data []byte, wantShard, wantShards, wantSlots int, wantFP uint64) (*ShardView, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: shard %d: %s", ErrStoreCorrupt, wantShard, fmt.Sprintf(format, args...))
	}
	body, err := durable.Unseal(data, storeMagic)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if !bytes.HasSuffix(body, []byte(storeFooterMagic)) {
		return nil, corrupt("missing footer")
	}
	d := durable.NewDec(body[:len(body)-len(storeFooterMagic)])
	if v := d.U32(); v != storeVersion {
		return nil, corrupt("format version %d, want %d", v, storeVersion)
	}
	shard := int(d.U32())
	shards := int(d.U32())
	slots := int(d.U32())
	nf := int(d.U32())
	events := int64(d.U64())
	fp := d.U64()
	if err := d.Err(); err != nil {
		return nil, corrupt("%v", err)
	}
	if shard != wantShard || shards != wantShards || slots != wantSlots || fp != wantFP {
		return nil, corrupt("header (shard %d/%d, slots %d, fp %016x) contradicts manifest (shard %d/%d, slots %d, fp %016x)",
			shard, shards, slots, fp, wantShard, wantShards, wantSlots, wantFP)
	}
	if events < 0 || events > int64(len(body)/8) {
		return nil, corrupt("event count %d exceeds payload", events)
	}

	// Column blocks, fixed order, each CRC-verified before decoding.
	payloads := make(map[uint32][]byte, numColumns)
	for _, want := range []uint32{colGlobals, colNames, colApps, colUsers, colTriggers, colSeriesLens, colEventSlots, colEventCounts} {
		id := d.U32()
		payload := d.Take(d.Count(int64(d.U64()), 1))
		blockSum := d.U32()
		if err := d.Err(); err != nil {
			return nil, corrupt("%v", err)
		}
		if id != want {
			return nil, corrupt("column block %d out of order (want %d)", id, want)
		}
		if durable.Checksum(payload) != blockSum {
			return nil, corrupt("column block %d checksum mismatch", id)
		}
		payloads[id] = payload
	}
	if err := d.Done(); err != nil {
		return nil, corrupt("after columns: %v", err)
	}

	if len(payloads[colGlobals]) != 4*nf {
		return nil, corrupt("globals column is %d bytes, want %d", len(payloads[colGlobals]), 4*nf)
	}
	global := make([]FuncID, nf)
	prev := int64(-1)
	for i := range global {
		g := binary.LittleEndian.Uint32(payloads[colGlobals][i*4:])
		if int64(g) <= prev {
			return nil, corrupt("global ids not ascending at local %d", i)
		}
		prev = int64(g)
		global[i] = FuncID(g)
	}

	nd := durable.NewDec(payloads[colNames])
	names := make([]string, nf)
	for i := range names {
		names[i] = nd.Str()
	}
	if err := nd.Done(); err != nil {
		return nil, corrupt("names column: %v", err)
	}

	// dict decodes one label-per-function dictionary column.
	dict := func(id uint32, what string) ([]string, error) {
		cd := durable.NewDec(payloads[id])
		labels := cd.Dict()
		if err := cd.Done(); err != nil {
			return nil, corrupt("%s column: %v", what, err)
		}
		if len(labels) != nf {
			return nil, corrupt("%s column has %d entries, want %d", what, len(labels), nf)
		}
		return labels, nil
	}
	apps, err := dict(colApps, "apps")
	if err != nil {
		return nil, err
	}
	users, err := dict(colUsers, "users")
	if err != nil {
		return nil, err
	}
	trigLabels, err := dict(colTriggers, "triggers")
	if err != nil {
		return nil, err
	}

	if len(payloads[colSeriesLens]) != 4*nf {
		return nil, corrupt("series-length column is %d bytes, want %d", len(payloads[colSeriesLens]), 4*nf)
	}
	lens := make([]int, nf)
	var total int64
	for i := range lens {
		lens[i] = int(binary.LittleEndian.Uint32(payloads[colSeriesLens][i*4:]))
		total += int64(lens[i])
	}
	if total != events {
		return nil, corrupt("series lengths sum to %d events, header says %d", total, events)
	}
	if len(payloads[colEventSlots]) != 4*int(events) || len(payloads[colEventCounts]) != 4*int(events) {
		return nil, corrupt("event columns are %d+%d bytes, want %d each",
			len(payloads[colEventSlots]), len(payloads[colEventCounts]), 4*int(events))
	}

	sub := NewTrace(slots)
	sub.Functions = make([]Function, nf)
	sub.Series = make([]Series, nf)
	backing := make([]Event, events)
	slotCol, countCol := payloads[colEventSlots], payloads[colEventCounts]
	off := 0
	for i := 0; i < nf; i++ {
		trig, err := ParseTrigger(trigLabels[i])
		if err != nil {
			return nil, corrupt("function %d: %v", i, err)
		}
		sub.Functions[i] = Function{ID: FuncID(i), Name: names[i], App: apps[i], User: users[i], Trigger: trig}
		s := backing[off : off+lens[i] : off+lens[i]]
		prevSlot := int32(-1)
		for j := range s {
			slot := int32(binary.LittleEndian.Uint32(slotCol[(off+j)*4:]))
			count := int32(binary.LittleEndian.Uint32(countCol[(off+j)*4:]))
			if slot <= prevSlot || int(slot) >= slots || count <= 0 {
				return nil, corrupt("function %d event %d (slot %d, count %d) violates series invariants", i, j, slot, count)
			}
			prevSlot = slot
			s[j] = Event{Slot: slot, Count: count}
		}
		if lens[i] > 0 {
			sub.Series[i] = Series(s)
		}
		off += lens[i]
	}

	sv := &ShardView{Trace: sub, Index: shard, Global: global}
	if got := sv.ContentHash(); got != fp {
		return nil, corrupt("content fingerprint %016x does not match header %016x", got, fp)
	}
	return sv, nil
}

// storeShardMeta is one shard's manifest record.
type storeShardMeta struct {
	Functions int
	Events    int64
	ContentFP uint64
}

// Store is an opened, manifest-verified columnar shard store. It is an
// immutable directory handle, safe for concurrent use: shard files are
// never modified after ingest, so any number of goroutines (and processes)
// can read shards at once.
type Store struct {
	dir       string
	fs        durable.FS
	shards    int
	functions int
	slots     int
	meta      []storeShardMeta
}

// encodeManifest serializes the store manifest:
//
//	magic[8] | version u32 | shards u32 | functions u64 | slots u32 |
//	per shard (functions u32 | events u64 | contentFP u64) | CRC-32C u32
func encodeManifest(s *Store) []byte {
	e := durable.NewEnc(storeManifestTag, 32+20*len(s.meta))
	e.U32(storeVersion)
	e.U32(uint32(s.shards))
	e.U64(uint64(s.functions))
	e.U32(uint32(s.slots))
	for _, m := range s.meta {
		e.U32(uint32(m.Functions))
		e.U64(uint64(m.Events))
		e.U64(m.ContentFP)
	}
	return e.Seal()
}

// decodeManifest verifies and decodes a manifest file.
func decodeManifest(data []byte) (*Store, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: manifest: %s", ErrStoreCorrupt, fmt.Sprintf(format, args...))
	}
	body, err := durable.Unseal(data, storeManifestTag)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	d := durable.NewDec(body)
	if v := d.U32(); v != storeVersion {
		return nil, corrupt("format version %d, want %d", v, storeVersion)
	}
	s := &Store{}
	s.shards = int(d.U32())
	s.functions = int(d.I64())
	s.slots = int(d.U32())
	if err := d.Err(); err != nil {
		return nil, corrupt("%v", err)
	}
	if s.shards <= 0 || s.functions < 0 || s.slots < 0 {
		return nil, corrupt("implausible header (shards %d, functions %d, slots %d)", s.shards, s.functions, s.slots)
	}
	s.meta = make([]storeShardMeta, d.Count(int64(s.shards), 20))
	total := 0
	for i := range s.meta {
		s.meta[i] = storeShardMeta{
			Functions: int(d.U32()),
			Events:    d.I64(),
			ContentFP: d.U64(),
		}
		total += s.meta[i].Functions
	}
	if err := d.Done(); err != nil {
		return nil, corrupt("%v", err)
	}
	if total != s.functions {
		return nil, corrupt("shard function counts sum to %d, header says %d", total, s.functions)
	}
	return s, nil
}

// OpenStore opens and verifies a columnar shard store directory: the
// manifest must decode (magic, version, checksum, structural consistency)
// and every shard file it names must exist. Shard contents are verified
// lazily by ShardTrace — per-block and whole-file CRCs on every read — so
// opening a large store stays O(P). A missing or failing store returns an
// error wrapping ErrStoreCorrupt (a missing directory reports
// os.ErrNotExist too); re-ingest the CSV to rebuild it.
func OpenStore(dir string) (*Store, error) { return OpenStoreFS(dir, durable.OS{}) }

// OpenStoreFS is OpenStore with the filesystem seam explicit. Only
// fault-injection harnesses and tests supply a non-default fs. Temp files a
// killed ingest orphaned are swept on the way in (durable.Sweep).
func OpenStoreFS(dir string, fs durable.FS) (*Store, error) {
	durable.Sweep(fs, dir, storeTmpPattern)
	data, err := fs.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStoreCorrupt, err)
	}
	s, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	s.dir, s.fs = dir, fs
	for i := 0; i < s.shards; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardFileName(i))); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrStoreCorrupt, err)
		}
	}
	return s, nil
}

// NumShards returns the store's shard count (fixed at ingest time).
func (s *Store) NumShards() int { return s.shards }

// NumFunctions returns the total function count across all shards.
func (s *Store) NumFunctions() int { return s.functions }

// Slots returns the full trace length in slots (train plus simulation).
func (s *Store) Slots() int { return s.slots }

// ShardTrace reads, verifies, and decodes shard i's full (unsplit) view.
// Each call re-reads the file — the O(n/P) residency contract — and any
// verification failure returns an error wrapping ErrStoreCorrupt.
func (s *Store) ShardTrace(i int) (*ShardView, error) {
	if i < 0 || i >= s.shards {
		return nil, fmt.Errorf("trace: store shard %d outside [0, %d)", i, s.shards)
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, shardFileName(i)))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStoreCorrupt, err)
	}
	return decodeShardFile(data, i, s.shards, s.slots, s.meta[i].ContentFP)
}

// Source returns a sim.Source view of the store with the trace split at
// trainSlots (0 yields no training half). The source is safe for
// concurrent Shard calls.
func (s *Store) Source(trainSlots int) (*StoreSource, error) {
	if trainSlots < 0 || trainSlots >= s.slots {
		return nil, fmt.Errorf("trace: store source train slots %d outside [0, %d)", trainSlots, s.slots)
	}
	return &StoreSource{store: s, trainSlots: trainSlots}, nil
}

// StoreSource adapts an opened Store to the sim.Source contract: Shard(i)
// reads and verifies exactly one shard file and splits it at the source's
// train boundary, so at most one shard's event series per in-flight worker
// is resident at once — O(n/P) each, with the CSV never reopened.
type StoreSource struct {
	store      *Store
	trainSlots int
}

// NumShards implements sim.Source.
func (ss *StoreSource) NumShards() int { return ss.store.shards }

// NumFunctions implements sim.Source.
func (ss *StoreSource) NumFunctions() int { return ss.store.functions }

// Slots implements sim.Source: the simulation window length.
func (ss *StoreSource) Slots() int { return ss.store.slots - ss.trainSlots }

// Shard implements sim.Source: read, verify, decode, split.
func (ss *StoreSource) Shard(i int) (train, sim *ShardView, err error) {
	sv, err := ss.store.ShardTrace(i)
	if err != nil {
		return nil, nil, err
	}
	if ss.trainSlots == 0 {
		return nil, sv, nil
	}
	tr, sm := sv.Trace.Split(ss.trainSlots)
	return &ShardView{Trace: tr, Index: i, Global: sv.Global},
		&ShardView{Trace: sm, Index: i, Global: sv.Global}, nil
}

// ShardFingerprint implements sim.SourceFingerprint without touching the
// shard file: the manifest's content fingerprint plus the split point
// uniquely determine the train/sim pair Shard returns. No engine reads it;
// it stays only because the benchmark asserts that its traced source
// forwards sim.SourceFingerprint.
func (ss *StoreSource) ShardFingerprint(i int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, fpDomainShard)
	hashU64(h, ss.store.meta[i].ContentFP)
	hashU64(h, uint64(ss.trainSlots))
	hashU64(h, uint64(ss.store.slots))
	return h.Sum64()
}
