package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/retry"
	"repro/internal/trace"
)

// shardKey identifies one shard simulation outcome by content: WHO ran
// (policy name + a hash of its complete behaviour-affecting configuration),
// over WHAT (the shard's train/sim trace fingerprint), for HOW LONG (the
// simulation slot count, guarding against two sources sharing a trace
// fingerprint scheme but differing in window). Two runs with equal keys
// produce bit-identical per-shard results — that is the cache's entire
// correctness argument, so every piece must be content-derived, never
// identity-derived. Content keys are also what makes entries relocatable:
// they name and verify entry files across process restarts unchanged.
type shardKey struct {
	policy string
	config uint64
	trace  uint64
	slots  int
}

// shardEntry is one cached shard outcome: the shard-local Result, the
// per-slot (loaded, active) log the merge recomputes global aggregates
// from, and the local-to-global id mapping. All three are read-only once
// loaded — the merge only reads them.
type shardEntry struct {
	res    *Result
	log    *slotLog
	global []trace.FuncID
}

// ShardCache memoizes per-shard simulation outcomes in an entry directory,
// making parameter sweeps incremental and restartable: a sweep point
// re-simulates only the shards of policies whose configuration changed, and
// a repeated configuration — in this process or in any later one opened on
// the same directory — is served from its entry file with a merge
// bit-identical to a fresh run. A lookup reads the entry file; a store
// commits one.
//
// One file per shard outcome, named and verified by the entry's content key
// (see shardKey), so one directory is safe to share across traces,
// policies, shard counts, goroutines and processes: entries are immutable
// once renamed into place, and two writers racing on one key write
// bit-identical bytes. An entry holds O(shard functions) metrics plus an
// O(slots) log — the event series themselves are never stored.
//
// Robustness rule: a lookup may only ever produce a bit-exact entry or a
// miss — never a wrong result. Every file carries a format version and a
// trailing checksum over its full contents; a truncated, corrupted,
// version-mismatched, or key-mismatched (filename collision) file is a miss
// and the shard re-simulates. Writes go through a temp file and an atomic
// rename, so a crash mid-write can leave stray garbage but never a live
// half-entry.
type ShardCache struct {
	dir string
	fs  durable.FS

	mu       sync.Mutex
	hits     int64
	misses   int64
	diskErrs int64

	// Tripwire: consecutive hard I/O failures (reads and writes; corrupt
	// entries don't count — they are content damage, not a device problem)
	// disable the cache after DiskFailureTripwire in a row, so a dying or
	// full volume stops costing every shard doomed syscalls. Logged once;
	// the simulation itself is unaffected — shards re-simulate.
	diskFails    int
	diskDisabled bool
}

// DiskFailureTripwire is how many consecutive I/O failures disable a
// ShardCache for the rest of its life (any success resets the count). The
// value is a balance: low enough that a dead volume stops costing a
// syscall (plus retries) per shard quickly, high enough that a brief stall
// does not silently turn off restart-survival for the run.
const DiskFailureTripwire = 8

// tmpPattern names the temp files save stages entries in. A process killed
// mid-write leaves its temp file behind (the atomic-rename design trades
// that for never exposing a half-entry), so OpenShardCache runs
// durable.Sweep — without it a crash-looping sweep would accumulate garbage
// forever.
const tmpPattern = ".tmp-shard-*"

// OpenShardCache opens (creating if needed) an entry directory, ready to be
// set as Options.Cache. The same directory may back many handles,
// concurrently and across processes. Orphaned temp files from writers that
// died mid-write are swept on open (best-effort; see durable.Sweep). Temp
// files are never served — lookups only ever read final entry names — so
// the sweep is purely a disk-space reclaim.
func OpenShardCache(dir string) (*ShardCache, error) {
	return OpenShardCacheFS(dir, durable.OS{})
}

// OpenShardCacheFS is OpenShardCache with the filesystem seam explicit.
// Only fault-injection harnesses and tests supply a non-default fs.
func OpenShardCacheFS(dir string, fs durable.FS) (*ShardCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sim: shard cache needs a directory")
	}
	if fs == nil {
		fs = durable.OS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: shard cache: %w", err)
	}
	durable.Sweep(fs, dir, tmpPattern)
	return &ShardCache{dir: dir, fs: fs}, nil
}

// lookup returns the entry stored for key, or nil, counting a hit or a
// miss. The file is read outside the lock: disk reads must not serialize
// other shards' lookups.
func (c *ShardCache) lookup(key shardKey) *shardEntry {
	var ent *shardEntry
	if !c.disabled() {
		var err error
		ent, err = c.load(key)
		c.noteIO(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent != nil {
		c.hits++
	} else {
		c.misses++
	}
	return ent
}

// store commits a freshly simulated shard outcome. Two concurrent runs of
// the same key may both miss and both store; the entries are bit-identical,
// so last-write-wins is harmless. A failed store only costs a future
// re-simulation.
func (c *ShardCache) store(key shardKey, ent *shardEntry) {
	if !c.disabled() {
		c.noteIO(c.save(key, ent))
	}
}

func (c *ShardCache) disabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskDisabled
}

// noteIO feeds one I/O outcome to the tripwire: a success resets the
// streak, and DiskFailureTripwire consecutive failures disable the cache.
func (c *ShardCache) noteIO(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		c.diskFails = 0
		return
	}
	c.diskErrs++
	c.diskFails++
	if !c.diskDisabled && c.diskFails >= DiskFailureTripwire {
		c.diskDisabled = true
		log.Printf("sim: shard cache %s disabled after %d consecutive I/O failures (last: %v); shards re-simulate for the rest of the run",
			c.dir, c.diskFails, err)
	}
}

// CacheStats reports a cache's traffic: Hits and Misses count lookups, one
// per shard attempt of every sharded or streamed run the cache is attached
// to.
// DiskErrors counts I/O failures (each of which degraded to a miss or a
// skipped write, never a wrong result). DiskDisabled reports the tripwire:
// DiskFailureTripwire consecutive I/O failures turned the cache off, so
// later lookups miss without touching the disk and stores are skipped
// (results stay correct; restart-survival is lost for this run).
type CacheStats struct {
	Hits         int64
	Misses       int64
	DiskErrors   int64
	DiskDisabled bool
}

// Stats snapshots the cache counters.
func (c *ShardCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		DiskErrors:   c.diskErrs,
		DiskDisabled: c.diskDisabled,
	}
}

// name maps a key to its entry file's name. The name is a hash of the full
// key — collisions are possible in principle, so load verifies the key block
// stored inside the file and treats a mismatch as a miss.
func (c *ShardCache) name(key shardKey) string {
	h := fnv.New64a()
	writeU64(h, uint64(len(key.policy)))
	h.Write([]byte(key.policy))
	writeU64(h, key.config)
	writeU64(h, key.trace)
	writeU64(h, uint64(key.slots))
	return fmt.Sprintf("shard-%016x.sce", h.Sum64())
}

func writeU64(h io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func (c *ShardCache) path(key shardKey) string { return filepath.Join(c.dir, c.name(key)) }

// Write-path retry bounds: a failing save re-stages the whole temp-file
// write up to diskSaveAttempts times with a short backoff (retry.Policy's
// doubling schedule: 2ms, then 4ms). Filesystem errors cannot be reliably
// classified from errno alone, so the write path treats every failure as
// possibly transient (nil classifier) and lets the attempt cap bound the
// damage; a save that still fails counts toward the tripwire.
const (
	diskSaveAttempts = 3
	diskSaveBackoff  = 2 * time.Millisecond
)

// save serializes an entry and commits it atomically (durable.Commit),
// retrying transiently failing writes.
func (c *ShardCache) save(key shardKey, ent *shardEntry) error {
	buf := encodeEntry(key, ent)
	p := retry.Policy{MaxAttempts: diskSaveAttempts, BaseDelay: diskSaveBackoff}
	return p.Do(func(int) error { return durable.Commit(c.fs, c.dir, c.name(key), tmpPattern, buf) }, nil)
}

// load reads, verifies, and decodes the entry for key. It returns (nil,
// nil) for a plain miss — no file, or a file that fails any verification
// step (corruption is a content problem, not a device problem, so it does
// not count toward the tripwire) — and a non-nil error only for I/O
// failures.
func (c *ShardCache) load(key shardKey) (*shardEntry, error) {
	data, err := c.fs.ReadFile(c.path(key))
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
