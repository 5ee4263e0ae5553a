package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/retry"
	"repro/internal/trace"
)

// DiskCache is the on-disk spill/restore tier behind ShardCache: one file
// per shard outcome, named and verified by the entry's content key, so
// cached sweeps survive process restarts and an LRU-evicted entry can be
// restored instead of re-simulated. Keys are pure content (policy name +
// config hash, shard trace fingerprint, slot count — see shardKey), which
// is what makes entries relocatable: any process that derives the same key
// would have produced a bit-identical outcome, so a restored entry is as
// good as a fresh run.
//
// Robustness rule: a disk read may only ever produce a bit-exact entry or
// a miss — never a wrong result. Every file carries a format version and a
// trailing checksum over its full contents; a truncated, corrupted,
// version-mismatched, or key-mismatched (filename collision) file is
// treated as a miss and the shard re-simulates. Writes go through a temp
// file and an atomic rename, so a crash mid-write can leave stray garbage
// but never a live half-entry.
//
// A DiskCache is an open directory handle, safe for concurrent use by any
// number of goroutines and processes: entries are immutable once renamed
// into place, and two writers racing on one key write bit-identical bytes.
type DiskCache struct {
	dir string
	fs  durable.FS
}

// diskMagic opens every entry file; diskVersion is the serialization
// format version. Bump diskVersion on ANY change to the entry encoding —
// readers reject other versions as misses, which is the correct (and only
// safe) migration: the entry re-simulates and overwrites.
//
// engineEpoch extends the content key across commits: the shardKey covers
// the policy's CONFIG, not the engine's CODE, and disk entries deliberately
// outlive the process (CI carries the directory across workflow runs), so
// a change to simulation semantics that touches no config field would
// otherwise serve stale outcomes computed by an older binary. Bump
// engineEpoch with any commit that changes simulation results for an
// unchanged configuration — epoch-mismatched entries are rejected as
// misses and re-simulate.
const (
	diskMagic   = "SPESSHC\x00"
	diskVersion = uint32(1)
	engineEpoch = uint32(1)
)

// tmpPattern names the temp files save stages entries in. A process killed
// mid-write leaves its temp file behind (the atomic-rename design trades that
// for never exposing a half-entry), so OpenDiskCache runs durable.Sweep —
// without it a crash-looping sweep would accumulate garbage forever.
const tmpPattern = ".tmp-shard-*"

// OpenDiskCache opens (creating if needed) an entry directory. The same
// directory may back many ShardCaches, concurrently and across processes.
// Orphaned temp files from writers that died mid-write are swept on open
// (best-effort; see durable.Sweep). Temp files are never served — loads
// only ever read final entry names — so the sweep is purely a disk-space
// reclaim.
func OpenDiskCache(dir string) (*DiskCache, error) {
	return OpenDiskCacheFS(dir, durable.OS{})
}

// OpenDiskCacheFS is OpenDiskCache with the filesystem seam explicit. Only
// fault-injection harnesses and tests supply a non-default fs.
func OpenDiskCacheFS(dir string, fs durable.FS) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sim: disk cache needs a directory")
	}
	if fs == nil {
		fs = durable.OS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: disk cache: %w", err)
	}
	durable.Sweep(fs, dir, tmpPattern)
	return &DiskCache{dir: dir, fs: fs}, nil
}

// Dir returns the cache's entry directory.
func (d *DiskCache) Dir() string { return d.dir }

// name maps a key to its entry file's name. The name is a hash of the full
// key — collisions are possible in principle, so load verifies the key block
// stored inside the file and treats a mismatch as a miss.
func (d *DiskCache) name(key shardKey) string {
	h := fnv.New64a()
	writeU64(h, uint64(len(key.policy)))
	h.Write([]byte(key.policy))
	writeU64(h, key.config)
	writeU64(h, key.trace)
	writeU64(h, uint64(key.slots))
	return fmt.Sprintf("shard-%016x.sce", h.Sum64())
}

func (d *DiskCache) path(key shardKey) string { return filepath.Join(d.dir, d.name(key)) }

// Write-path retry bounds: a failing save re-stages the whole temp-file
// write up to diskSaveAttempts times with a short backoff (retry.Policy's
// doubling schedule: 2ms, then 4ms). Filesystem errors cannot be reliably
// classified from errno alone, so the write path treats every failure as
// possibly transient (nil classifier) and lets the attempt cap bound the
// damage; a save that still fails is reported to ShardCache, which counts
// it toward the disk-tier tripwire.
const (
	diskSaveAttempts = 3
	diskSaveBackoff  = 2 * time.Millisecond
)

// save serializes an entry and commits it atomically (durable.Commit),
// retrying transiently failing writes. Errors are reported so ShardCache can
// count them, but callers treat the disk tier as best-effort: a failed save
// only costs a future re-simulation.
func (d *DiskCache) save(key shardKey, ent *shardEntry) error {
	buf := encodeEntry(key, ent)
	p := retry.Policy{MaxAttempts: diskSaveAttempts, BaseDelay: diskSaveBackoff}
	return p.Do(func(int) error { return durable.Commit(d.fs, d.dir, d.name(key), tmpPattern, buf) }, nil)
}

// load reads, verifies, and decodes the entry for key. It returns (nil,
// nil) for a plain miss — no file, or a file that fails any verification
// step (corruption is a content problem, not a device problem, so it does
// not count toward the disk-tier tripwire) — and a non-nil error only for
// I/O failures, which ShardCache counts and eventually trips on.
func (d *DiskCache) load(key shardKey) (*shardEntry, error) {
	data, err := d.fs.ReadFile(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	ent, err := decodeEntry(key, data)
	if err != nil {
		// Corrupt, truncated, stale-version, or colliding entry: a miss.
		// The shard re-simulates and the store overwrites the bad file.
		return nil, nil
	}
	return ent, nil
}

// Entry file layout (the durable envelope; all integers little-endian):
//
//	magic[8] | version u32 | engine epoch u32 | key block | payload | checksum u32
//
// key block: policy (u32 len + bytes), config u64, trace u64, slots u32.
// payload: Result fields, slotLog vectors, Global mapping (see
// encodeEntry).

// encodeEntry serializes (key, entry) into the versioned checksummed file
// format.
func encodeEntry(key shardKey, ent *shardEntry) []byte {
	res, log := ent.res, ent.log
	e := durable.NewEnc(diskMagic, 64+len(key.policy)+len(res.Policy)+
		32*len(res.PerFunc)+8*len(log.loaded)+4*len(ent.global))
	e.U32(diskVersion)
	e.U32(engineEpoch)

	// Key block: verified on load against the key the reader derived, so a
	// filename hash collision can never alias two entries.
	e.Str(key.policy)
	e.U64(key.config)
	e.U64(key.trace)
	e.U32(uint32(key.slots))

	// Result.
	e.Str(res.Policy)
	e.U32(uint32(res.Slots))
	e.U32(uint32(res.Functions))
	e.U32(uint32(len(res.PerFunc)))
	for _, m := range res.PerFunc {
		e.I64(m.Invocations)
		e.I64(m.InvokedSlot)
		e.I64(m.ColdStarts)
		e.I64(m.WMTMinutes)
	}
	e.I64(res.TotalInvocations)
	e.I64(res.TotalInvokedSlot)
	e.I64(res.TotalColdStarts)
	e.I64(res.TotalWMT)
	e.I64(res.TotalMemory)
	e.U32(uint32(res.MaxLoaded))
	e.F64(res.EMCRSum)
	e.I64(res.EMCRSlots)
	e.I64(int64(res.Overhead))
	// Types: nil and present are distinct — the merge only labels the
	// global result when every shard is typed. Labels come from a small
	// fixed vocabulary (the policies' category names), hence the dictionary
	// column.
	e.Bool(res.Types != nil)
	if res.Types != nil {
		e.Dict(res.Types)
	}

	// slotLog.
	e.U32(uint32(len(log.loaded)))
	for _, v := range log.loaded {
		e.U32(uint32(v))
	}
	for _, v := range log.active {
		e.U32(uint32(v))
	}

	// Global mapping.
	e.U32(uint32(len(ent.global)))
	for _, g := range ent.global {
		e.U32(uint32(g))
	}
	return e.Seal()
}

// decodeI32s bulk-decodes n fixed-width little-endian values: one bounds
// check for the whole block, then direct offset reads — the restart-warming
// path decodes tens of thousands of these per sweep.
func decodeI32s[T ~int32](d *durable.Dec, n int) []T {
	blk := d.Take(4 * n)
	if blk == nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(blk[i*4:]))
	}
	return out
}

// decodeEntry verifies and decodes one entry file. Any failure — bad magic,
// version skew, checksum mismatch, truncation, a count the payload cannot
// hold, or a key block that does not match wantKey — returns an error the
// caller maps to a cache miss.
func decodeEntry(wantKey shardKey, data []byte) (*shardEntry, error) {
	body, err := durable.Unseal(data, diskMagic)
	if err != nil {
		return nil, fmt.Errorf("sim: disk entry: %w", err)
	}
	d := durable.NewDec(body)
	if v := d.U32(); v != diskVersion {
		return nil, fmt.Errorf("sim: disk entry format version %d, want %d", v, diskVersion)
	}
	if v := d.U32(); v != engineEpoch {
		return nil, fmt.Errorf("sim: disk entry engine epoch %d, want %d", v, engineEpoch)
	}
	got := shardKey{policy: d.Str(), config: d.U64(), trace: d.U64(), slots: int(d.U32())}
	if d.Err() == nil && got != wantKey {
		return nil, fmt.Errorf("sim: disk entry key mismatch (filename collision)")
	}

	res := &Result{
		Policy:    d.Str(),
		Slots:     int(d.U32()),
		Functions: int(d.U32()),
	}
	if blk := d.Take(32 * d.Count(int64(d.U32()), 32)); blk != nil {
		res.PerFunc = make([]FuncMetrics, len(blk)/32)
		for i := range res.PerFunc {
			o := blk[i*32:]
			res.PerFunc[i] = FuncMetrics{
				Invocations: int64(binary.LittleEndian.Uint64(o)),
				InvokedSlot: int64(binary.LittleEndian.Uint64(o[8:])),
				ColdStarts:  int64(binary.LittleEndian.Uint64(o[16:])),
				WMTMinutes:  int64(binary.LittleEndian.Uint64(o[24:])),
			}
		}
	}
	res.TotalInvocations = d.I64()
	res.TotalInvokedSlot = d.I64()
	res.TotalColdStarts = d.I64()
	res.TotalWMT = d.I64()
	res.TotalMemory = d.I64()
	res.MaxLoaded = int(d.U32())
	res.EMCRSum = d.F64()
	res.EMCRSlots = d.I64()
	res.Overhead = time.Duration(d.I64())
	if d.U8() == 1 {
		res.Types = d.Dict()
	}

	ns := d.Count(int64(d.U32()), 8)
	log := &slotLog{loaded: decodeI32s[int32](d, ns), active: decodeI32s[int32](d, ns)}
	global := decodeI32s[trace.FuncID](d, d.Count(int64(d.U32()), 4))
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("sim: disk entry: %w", err)
	}
	return &shardEntry{res: res, log: log, global: global}, nil
}
