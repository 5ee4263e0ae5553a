// Package faultinject is the deterministic fault-injection harness behind
// the simulation engine's fault-tolerance layer: a seeded Injector that
// produces filesystem faults (read/write/rename errors, short writes, bit
// flips) behind the durable.FS filesystem seam and worker faults
// (panics, artificial slowness) at the shard boundary, on a reproducible
// schedule.
//
// Determinism model: every injection decision is a pure hash of (seed,
// fault site, subject, sequence) — never a stateful RNG draw — so the
// schedule does not depend on goroutine interleaving across subjects. The
// subject is chosen to be stable: final entry filenames for reads and
// renames, the content hash of the bytes being written for temp-file
// writes (temp names embed a random component, content does not), and the
// shard index for worker faults. The sequence is a per-subject counter, so
// a retried operation rolls a fresh decision — which is what lets a
// transient injected fault be cured by the retry that the fault-tolerance
// layer owes it. Two runs with the same seed, workload, and configuration
// therefore draw the same faults per subject, and — the invariant the
// harness exists to prove — any injected run that completes must be
// bit-identical to the clean run (asserted by `eqvcheck -faults` and the
// fault-injection tests).
//
// The dependency arrow points one way: this package implements the seams
// others declare (durable.FS / durable.File for every persistent file,
// sim.ShardFaultHook for workers), and its injected errors advertise
// themselves as transient through the `Transient() bool` method
// sim.IsTransient sniffs for — sim itself never imports the harness.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config sets per-class injection rates in permille (0..1000) of eligible
// operations. The zero value injects nothing.
type Config struct {
	ReadErr    int // reads failing with a transient I/O error
	BitFlip    int // successful reads returning a single-bit-corrupted copy
	WriteErr   int // temp-file writes failing with a transient I/O error
	ShortWrite int // temp-file writes silently persisting only a prefix (a lying disk)
	RenameErr  int // renames failing with a transient I/O error

	WorkerPanic int           // first-attempt shard simulations panicking (retry attempts never re-panic, so the run can complete)
	SlowShard   int           // shard attempts sleeping SlowDelay before simulating
	SlowDelay   time.Duration // sleep per slow shard (default 20ms when SlowShard > 0)

	// Serving fault classes (internal/serve). The daemon and load client
	// draw these themselves — same (seed, site, subject, seq) schedule, same
	// invariant: any injected serving run that completes must reach the same
	// policy state hash as the clean run.
	DropConn        int           // ingest requests aborted server-side (the client sees a dropped connection and retries)
	SlowClient      int           // load-client batches stalled before transmission
	SlowClientDelay time.Duration // stall per slow batch (default 20ms when SlowClient > 0)
	TornSnapshot    int           // serving snapshot writes persisting only a prefix (lying disk: the rename still lands)
}

// Default returns aggressive-but-recoverable rates: high enough that a
// small run draws every fault class, low enough that bounded retries and
// the corrupt-entry-is-a-miss rule keep the run completing. Used by
// `eqvcheck -faults` and the faultsmoke CI job.
func Default() Config {
	return Config{
		ReadErr:     150,
		BitFlip:     150,
		WriteErr:    150,
		ShortWrite:  150,
		RenameErr:   100,
		WorkerPanic: 300,
		SlowShard:   200,
		SlowDelay:   5 * time.Millisecond,
	}
}

// ServeDefault returns the serving-mode counterpart of Default: dropped
// connections and client stalls frequent enough that a short load replay
// exercises the retry/dedup path, torn snapshots frequent enough that a
// kill-and-restore run falls back across snapshot generations. Used by the
// `-faults` flag of cmd/spes-serve and cmd/spes-load and the servesmoke CI
// job.
func ServeDefault() Config {
	return Config{
		DropConn:        60,
		SlowClient:      100,
		SlowClientDelay: 2 * time.Millisecond,
		TornSnapshot:    300,
	}
}

// Error is an injected fault, distinguishable from real I/O errors and
// marked transient so the retry layers (DiskCache write retries, shard
// re-runs) treat it as curable.
type Error struct {
	Site    string // fault class ("readerr", "writeerr", "renameerr")
	Subject string // stable operation subject (entry filename, content hash)
	Seq     uint64 // per-subject operation sequence the fault fired on
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s on %s (op %d)", e.Site, e.Subject, e.Seq)
}

// Transient reports true: an injected fault models a hiccup, and a retry
// rolls a fresh schedule decision.
func (e *Error) Transient() bool { return true }

// Injector draws faults on a seeded deterministic schedule. Safe for
// concurrent use.
type Injector struct {
	seed uint64
	cfg  Config

	mu     sync.Mutex
	seq    map[string]uint64 // per-(site-class:subject) operation counters
	counts map[string]int64  // injections per fault class
}

// New returns an Injector for the given seed and rates.
func New(seed int64, cfg Config) *Injector {
	if cfg.SlowShard > 0 && cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 20 * time.Millisecond
	}
	return &Injector{
		seed:   uint64(seed),
		cfg:    cfg,
		seq:    make(map[string]uint64),
		counts: make(map[string]int64),
	}
}

// next increments and returns the per-subject operation counter.
func (in *Injector) next(k string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq[k]++
	return in.seq[k]
}

// roll is the schedule: a pure hash of (seed, site, subject, seq) mapped
// to [0, 1000).
func (in *Injector) roll(site, subject string, seq uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, v := 0, in.seed; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(site))
	h.Write([]byte{0})
	h.Write([]byte(subject))
	h.Write([]byte{0})
	for i := 0; i < 8; i++ {
		b[i] = byte(seq >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64() % 1000
}

// decide rolls the schedule and counts a hit.
func (in *Injector) decide(site, subject string, seq uint64, permille int) bool {
	if permille <= 0 {
		return false
	}
	if in.roll(site, subject, seq) >= uint64(permille) {
		return false
	}
	in.mu.Lock()
	in.counts[site]++
	in.mu.Unlock()
	return true
}

// BeforeShard implements sim.ShardFaultHook: on the schedule's say-so it
// sleeps (slow shard) and, on first attempts only, panics (worker crash).
// Restricting panics to attempt 1 keeps injected crashes transient: the
// isolation layer's re-run completes, which is what the completes ⇒
// bit-identical invariant needs. Deterministically-panicking workers are a
// different failure (covered by the unit tests' always-panic hooks), not a
// schedule this harness draws.
func (in *Injector) BeforeShard(shard, attempt int) {
	subject := fmt.Sprintf("shard-%d", shard)
	if in.cfg.SlowShard > 0 && in.decide("slow", subject, uint64(attempt), in.cfg.SlowShard) {
		time.Sleep(in.cfg.SlowDelay)
	}
	if attempt == 1 && in.cfg.WorkerPanic > 0 && in.decide("panic", subject, 1, in.cfg.WorkerPanic) {
		panic(fmt.Sprintf("faultinject: injected worker panic on %s", subject))
	}
}

// DropConn reports whether the serving daemon should abort this request
// (subject: a stable request identity such as "events:<first seq>"), per the
// seeded schedule. Each ask on a subject advances its sequence, so the
// retried request rolls a fresh decision and eventually lands.
func (in *Injector) DropConn(subject string) bool {
	if in == nil || in.cfg.DropConn <= 0 {
		return false
	}
	return in.decide("dropconn", subject, in.next("dropconn:"+subject), in.cfg.DropConn)
}

// SlowClient returns the stall to insert before transmitting the subject's
// batch (0 when the schedule says run clean).
func (in *Injector) SlowClient(subject string) time.Duration {
	if in == nil || in.cfg.SlowClient <= 0 {
		return 0
	}
	if in.decide("slowclient", subject, in.next("slowclient:"+subject), in.cfg.SlowClient) {
		return in.cfg.SlowClientDelay
	}
	return 0
}

// TornSnapshot reports whether this serving snapshot write should persist
// only a prefix (the rename still succeeds — a lying disk). The restore path
// must reject the torn file by checksum and fall back to an older snapshot
// or a full journal replay.
func (in *Injector) TornSnapshot(subject string) bool {
	if in == nil || in.cfg.TornSnapshot <= 0 {
		return false
	}
	return in.decide("tornsnap", subject, in.next("tornsnap:"+subject), in.cfg.TornSnapshot)
}

// Counts snapshots the number of injected faults per class.
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t int64
	for _, v := range in.counts {
		t += v
	}
	return t
}

// String summarizes the injected-fault counts ("bitflip=2 panic=1 ...").
func (in *Injector) String() string {
	counts := in.Counts()
	if len(counts) == 0 {
		return "no faults injected"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}
