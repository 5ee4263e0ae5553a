package sim

import (
	"container/list"
	"fmt"
	"log"
	"sync"

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
// DiskCache persists them across process restarts unchanged.
type shardKey struct {
	policy string
	config uint64
	trace  uint64
	slots  int
}

// shardEntry is one cached shard outcome: the shard-local Result, the
// per-slot (loaded, active) log the merge recomputes global aggregates
// from, and the local-to-global id mapping. All three are read-only once
// stored — the merge only reads them, and concurrent merges may share one
// entry.
type shardEntry struct {
	res    *Result
	log    *slotLog
	global []trace.FuncID
}

// bytes estimates the entry's in-memory footprint, the unit of the cache's
// byte budget. An estimate is fine: the budget bounds growth, it is not an
// allocator.
func (e *shardEntry) bytes() int64 {
	b := int64(256) // struct headers and slice headers
	b += int64(len(e.res.PerFunc)) * 32
	for _, t := range e.res.Types {
		b += int64(len(t)) + 16
	}
	b += int64(len(e.log.loaded)+len(e.log.active)) * 4
	b += int64(len(e.global)) * 4
	return b
}

// Default in-memory residency budget of NewShardCache. Entries hold
// O(shard functions + slots) metrics — no event series — so this admits
// hundreds of large-scale shard outcomes while bounding what used to be an
// unbounded map; callers with different needs use SetBudget.
const (
	DefaultCacheEntries = 4096
	DefaultCacheBytes   = 1 << 30
)

// ShardCache memoizes per-shard simulation outcomes across sharded runs,
// making parameter sweeps incremental: a sweep point re-simulates only the
// shards of policies whose configuration changed, and a repeated
// configuration (a warm sweep, a baseline shared across figures) is served
// from the cache with a merge bit-identical to a fresh run.
//
// Entries are keyed by content (see shardKey), so the cache is safe to
// share across traces, policies, shard counts, and goroutines. Memory: one
// entry holds O(shard functions) metrics plus O(slots) log — the event
// series themselves are NOT retained — and total residency is bounded by a
// configurable entry/byte budget with LRU eviction (SetBudget), so a long
// sweep can no longer grow the map without bound. With a DiskCache
// attached (AttachDisk), every store is written through to disk, evicted
// entries remain restorable, and lookups fall back to the disk tier —
// which is how sweeps survive process restarts; without one, evicted
// entries are simply dropped and re-simulate on the next miss.
type ShardCache struct {
	mu      sync.Mutex
	entries map[shardKey]*list.Element
	lru     list.List // front = most recently used; values are *lruEntry
	bytes   int64

	maxEntries int
	maxBytes   int64

	disk *DiskCache

	hits      int64
	misses    int64
	evictions int64
	diskHits  int64
	diskErrs  int64

	// Disk-tier tripwire: consecutive hard I/O failures (reads and writes;
	// corrupt entries don't count — they are content damage, not a device
	// problem) trip the disk tier off after DiskFailureTripwire in a row,
	// so a dying or full volume degrades the cache to in-memory-only
	// instead of hammering every shard with doomed syscalls. Logged once;
	// the in-memory tier and the simulation itself are unaffected.
	diskFails    int
	diskDisabled bool
}

// DiskFailureTripwire is how many consecutive disk-tier I/O failures
// disable the tier for the rest of the process (any success resets the
// count). The value is a balance: low enough that a dead volume stops
// costing a syscall (plus retries) per shard quickly, high enough that a
// brief stall does not silently turn off restart-survival for the run.
const DiskFailureTripwire = 8

// lruEntry is one resident cache slot.
type lruEntry struct {
	key   shardKey
	ent   *shardEntry
	bytes int64
}

// NewShardCache returns an empty cache with the default residency budget
// (DefaultCacheEntries / DefaultCacheBytes), ready to be set as
// Options.Cache.
func NewShardCache() *ShardCache {
	return &ShardCache{
		entries:    make(map[shardKey]*list.Element),
		maxEntries: DefaultCacheEntries,
		maxBytes:   DefaultCacheBytes,
	}
}

// SetBudget replaces the in-memory residency budget: at most maxEntries
// entries and maxBytes estimated bytes stay resident, least-recently-used
// evicted first (0 means unlimited for either dimension). The budget is a
// residency cap, not a correctness bound — an evicted entry re-simulates
// (or reloads from an attached DiskCache) on its next lookup. The most
// recently touched entry is never evicted, so a single entry larger than
// maxBytes still serves its run.
func (c *ShardCache) SetBudget(maxEntries int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evictLocked()
}

// AttachDisk adds an on-disk spill/restore tier: stores write through to
// d, in-memory misses consult d before re-simulating, and LRU-evicted
// entries stay restorable from d. Attach before running; entries stored
// earlier are not retroactively spilled. Attaching also re-arms the
// disk-tier tripwire (a fresh tier deserves a fresh failure budget).
func (c *ShardCache) AttachDisk(d *DiskCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = d
	c.diskFails = 0
	c.diskDisabled = false
}

// vetPolicy refuses capacity-coupled policies: their per-shard outcomes
// depend on cross-shard state (the global budget and the shared clock), so
// the cache's (policy, config, trace fingerprint, slots) key does not
// determine a shard's outcome and caching would serve wrong results. The
// capacity engine calls this before running whenever a cache is attached;
// the refusal is loud (CapacityCacheError wrapping ErrCapacityCoupled)
// rather than a silent bypass, so a sweep misconfigured to cache a capacity
// baseline fails visibly instead of quietly losing its incrementality.
func (c *ShardCache) vetPolicy(p Policy) error {
	if _, ok := p.(CapacityPolicy); ok {
		return &CapacityCacheError{Policy: p.Name()}
	}
	return nil
}

// lookup returns the cached entry for key, counting a hit or miss. The
// in-memory tier is consulted first; on a miss with a disk tier attached,
// the entry is restored from disk (outside the lock — disk reads must not
// serialize other shards' lookups) and re-inserted as most recently used.
func (c *ShardCache) lookup(key shardKey) *shardEntry {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		ent := el.Value.(*lruEntry).ent
		c.mu.Unlock()
		return ent
	}
	disk := c.disk
	if disk == nil || c.diskDisabled {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	ent, err := disk.load(key)
	c.mu.Lock()
	if err != nil {
		c.noteDiskErrLocked(err)
	} else {
		c.diskFails = 0
	}
	if ent != nil {
		c.insertLocked(key, ent)
		c.hits++
		c.diskHits++
		c.mu.Unlock()
		return ent
	}
	c.misses++
	c.mu.Unlock()
	return nil
}

// noteDiskErrLocked counts one disk-tier I/O failure and trips the tier
// off after DiskFailureTripwire consecutive ones. Callers hold mu.
func (c *ShardCache) noteDiskErrLocked(err error) {
	c.diskErrs++
	c.diskFails++
	if !c.diskDisabled && c.diskFails >= DiskFailureTripwire {
		c.diskDisabled = true
		log.Printf("sim: disk cache tier disabled after %d consecutive I/O failures (last: %v); continuing with the in-memory tier only",
			c.diskFails, err)
	}
}

// store records a freshly simulated shard outcome, writing through to the
// disk tier when one is attached. Two concurrent runs of the same key may
// both miss and both store; the entries are bit-identical, so
// last-write-wins is harmless in both tiers.
func (c *ShardCache) store(key shardKey, ent *shardEntry) {
	c.mu.Lock()
	disk := c.disk
	if c.diskDisabled {
		disk = nil
	}
	c.mu.Unlock()
	if disk != nil {
		err := disk.save(key, ent)
		c.mu.Lock()
		if err != nil {
			c.noteDiskErrLocked(err)
		} else {
			c.diskFails = 0
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.insertLocked(key, ent)
	c.mu.Unlock()
}

// insertLocked puts (key, ent) at the front of the LRU, replacing any
// previous entry for the key, then enforces the budget. Callers hold mu.
func (c *ShardCache) insertLocked(key shardKey, ent *shardEntry) {
	if el, ok := c.entries[key]; ok {
		le := el.Value.(*lruEntry)
		c.bytes += ent.bytes() - le.bytes
		le.ent = ent
		le.bytes = ent.bytes()
		c.lru.MoveToFront(el)
	} else {
		le := &lruEntry{key: key, ent: ent, bytes: ent.bytes()}
		c.entries[key] = c.lru.PushFront(le)
		c.bytes += le.bytes
	}
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the budget holds,
// always sparing the most recently used entry. With a disk tier attached
// eviction is a spill — every resident entry was written through at store
// time (or restored from disk), so the dropped entry remains on disk;
// without one it is simply forgotten.
func (c *ShardCache) evictLocked() {
	over := func() bool {
		if c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
			return true
		}
		if c.maxBytes > 0 && c.bytes > c.maxBytes {
			return true
		}
		return false
	}
	for c.lru.Len() > 1 && over() {
		el := c.lru.Back()
		le := el.Value.(*lruEntry)
		c.lru.Remove(el)
		delete(c.entries, le.key)
		c.bytes -= le.bytes
		c.evictions++
	}
}

// CacheStats reports a cache's traffic: Hits and Misses count lookups by
// qualified runs (non-qualified runs bypass the cache without counting) —
// DiskHits is the subset of Hits served by restoring a disk entry rather
// than from memory. Entries and Bytes describe current in-memory residency
// (Bytes is the budget's estimate); Evictions counts entries pushed out by
// the LRU budget, and DiskErrors counts disk-tier I/O failures (each of
// which degraded to a miss or a skipped write, never a wrong result).
// DiskDisabled reports the tripwire: DiskFailureTripwire consecutive I/O
// failures turned the disk tier off for the rest of the process, so later
// lookups/stores skip it (the in-memory tier keeps serving, results stay
// correct, restart-survival is lost for this run).
type CacheStats struct {
	Hits         int64
	Misses       int64
	Entries      int
	Bytes        int64
	Evictions    int64
	DiskHits     int64
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
		Entries:      len(c.entries),
		Bytes:        c.bytes,
		Evictions:    c.evictions,
		DiskHits:     c.diskHits,
		DiskErrors:   c.diskErrs,
		DiskDisabled: c.diskDisabled,
	}
}

// Sweep runs many policy configurations over one fixed materialized
// workload with shard results cached and the partition shared, so a
// parameter sweep re-simulates only what each point changes and a repeated
// point costs one merge. Build one per workload; call Run per sweep point.
// (A streamed sweep needs no type: pass one Options.Cache to RunStreamed.)
type Sweep struct {
	train, simTr *trace.Trace
	opts         Options
}

// NewSweep prepares an incremental sweep over a materialized train/sim
// pair. opts.Shards > 1 enables per-shard caching (the partition and shard
// fingerprints are computed once and shared across all points); a missing
// Cache is created. Results are bit-identical to plain Run with the same
// options.
func NewSweep(train, simTr *trace.Trace, opts Options) (*Sweep, error) {
	if simTr == nil {
		return nil, fmt.Errorf("sim: sweep needs a simulation trace")
	}
	if opts.Cache == nil {
		opts.Cache = NewShardCache()
	}
	if opts.Shards > 1 {
		opts.shardSet = buildShardSet(train, simTr, opts.Shards)
	}
	return &Sweep{train: train, simTr: simTr, opts: opts}, nil
}

// Run simulates one sweep point.
func (s *Sweep) Run(policy Policy) (*Result, error) {
	return Run(policy, s.train, s.simTr, s.opts)
}
