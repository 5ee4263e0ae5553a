package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/durable"
)

// Streaming trace ingestion: one pass over an arbitrarily large Azure-format
// CSV into the columnar shard store, without ever materializing the full
// trace.
//
// The pass keeps O(functions) metadata in memory (the union-find partition
// needs every function's app and user before shards can be assigned) and
// one 8-byte index entry per non-empty row, but never the event series:
// each row's events are appended to a bounded buffer, and a full buffer is
// appended to one spill file. The pass is csvStream's: on two cores one
// block of the CSV is scanned while the rows of the block before it are
// checked and buffered here, in row order. After the pass the canonical
// app/user-closed partition is computed with the exact same
// PartitionFunctions call a materialized run uses, and the shards are
// assembled — gather, normalize, fingerprint, encode, commit — by one
// FanOut over them. Item i walks the row index and copies shard i's rows
// straight to their functions' places in its worker's arena: from the
// buffer in place, or out of the spill file, so a spilled event is written
// once and requested once (from the page cache while the spill fits there;
// DESIGN.md has the uncached cost). Each worker reuses scratch sized for
// the largest shard. Peak memory is
// O(function metadata + rows + buffer budget + W × largest shard) for
// W = min(GOMAXPROCS, shards) workers, and the files are the same bytes at
// any W.

// defaultIngestBudget is the in-memory event buffer size before spilling:
// 4Mi events = 32 MiB. The paper-scale Azure trace (weeks over tens of
// thousands of apps) spills a handful of times; toy traces never spill.
const defaultIngestBudget = 4 << 20

// IngestOptions tunes IngestCSV.
type IngestOptions struct {
	// Shards is the partition width P (the store's shard count is fixed at
	// ingest time). Values < 1 mean 1.
	Shards int
	// MaxBufferedEvents bounds the in-memory event buffer; when the buffer
	// fills, it is appended to the spill file. Values < 1 mean the
	// 4Mi-event default. Tests set tiny values to force the spill path.
	MaxBufferedEvents int
}

// IngestStats reports what one IngestCSV pass did.
type IngestStats struct {
	Functions  int   // distinct functions ingested
	Shards     int   // store shard count
	Slots      int   // full trace span in slots (train plus simulation)
	Events     int64 // sparse events written (invoked minutes)
	SpillRuns  int   // buffers spilled to disk (0 when the buffer sufficed)
	StoreBytes int64 // total size of the written shard files and manifest

	// Wall time of each stage, as the ingest measures it: pass 1 (the row
	// stream, its block scan and in-order stage together) and the shard
	// stage (partition, then gather, assemble, fingerprint, encode and
	// commit every shard, then the manifest).
	PassWall, ShardsWall time.Duration
}

// IngestCSV streams an Azure-schema CSV from r into a columnar shard store
// at dir (created if needed), partitioned into opts.Shards app/user-closed
// shards, and returns the opened store. The partition, the per-function
// series, and therefore every simulation result downstream are bit-identical
// to ReadCSV + PartitionFunctions + ShardBy over the same input — IngestCSV
// consumes the same validating row stream and the same partition call, it
// just never holds more than one shard's events (plus the spill buffer) in
// memory.
//
// Any existing manifest in dir is removed first, so an ingest that fails
// midway leaves a directory OpenStore rejects rather than a stale store.
func IngestCSV(r io.Reader, dir string, opts IngestOptions) (*Store, *IngestStats, error) {
	return IngestCSVFS(r, dir, opts, durable.OS{})
}

// IngestCSVFS is IngestCSV with the store's filesystem seam explicit (the
// spill file is scratch and stays on the real filesystem). Only
// fault-injection harnesses and tests supply a non-default fs.
func IngestCSVFS(r io.Reader, dir string, opts IngestOptions, fs durable.FS) (*Store, *IngestStats, error) {
	p := opts.Shards
	if p < 1 {
		p = 1
	}
	budget := opts.MaxBufferedEvents
	if budget < 1 {
		budget = defaultIngestBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("trace: ingest: %w", err)
	}
	// Invalidate any previous store now: shard files are replaced atomically
	// one by one below, and an old manifest over new shard files would be a
	// mixed store. Fingerprint verification would catch the mix, but an
	// unopenable directory states the situation honestly.
	fs.Remove(filepath.Join(dir, manifestName))
	durable.Sweep(fs, dir, storeTmpPattern)

	spillDir, err := os.MkdirTemp(dir, ".ingest-*")
	if err != nil {
		return nil, nil, fmt.Errorf("trace: ingest: %w", err)
	}
	defer os.RemoveAll(spillDir)
	sp := &ingestSpill{dir: spillDir, budget: budget}
	defer sp.close()

	// Pass 1: collect metadata and buffer events, row by row in order, as
	// the stream's in-order stage hands the rows over (one block of rows
	// while the next block is scanned).
	tPass := time.Now()
	var (
		fns    []Function
		slots  int
		events int64
	)
	err = newCSVStream(r).run(func(row csvRecord) error {
		if row.New {
			fns = append(fns, Function{ID: row.ID, Name: row.Name, App: row.App, User: row.User, Trigger: row.Trigger})
		}
		if row.EndSlot > slots {
			slots = row.EndSlot
		}
		if err := sp.add(row.ID, row.Events); err != nil {
			return fmt.Errorf("trace: ingest: spilling events: %w", err)
		}
		events += int64(len(row.Events))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// The canonical partition — the same call, over the same
	// first-appearance-ordered metadata, as the materialized path.
	tShards := time.Now()
	part := PartitionFunctions(fns, p)

	// Assemble and write each shard: one FanOut item per shard, on up to
	// GOMAXPROCS workers. A shard's view is dead once its file is committed,
	// so each worker reuses one set of scratch sized for the largest shard
	// (shardWorker). Item i writes only store.meta[i] and fileBytes[i].
	store := &Store{dir: dir, fs: fs, shards: p, functions: len(fns), slots: slots, meta: make([]storeShardMeta, p)}
	largest := 0
	for i := range p {
		n := 0
		for _, g := range part.Members(i) {
			n += int(sp.sizes[g])
		}
		largest = max(largest, n)
	}
	width := min(runtime.GOMAXPROCS(0), p)
	workers := make([]*shardWorker, width)
	fileBytes := make([]int64, p)
	err = FanOut(width, p, func(w, i int) error {
		if workers[w] == nil {
			workers[w] = newShardWorker(largest, sp.file != nil)
		}
		sw := workers[w]
		sv, shardEvents, err := sw.assemble(fns, part, i, slots, sp)
		if err != nil {
			return fmt.Errorf("trace: ingest: %w", err)
		}
		fp := sv.ContentHash()
		sw.file = encodeShardFile(sw.file, sv, p, shardEvents, fp)
		if err := durable.Commit(fs, dir, shardFileName(i), storeTmpPattern, sw.file); err != nil {
			return fmt.Errorf("trace: ingest: writing shard %d: %w", i, err)
		}
		store.meta[i] = storeShardMeta{Functions: len(sv.Functions), Events: shardEvents, ContentFP: fp}
		fileBytes[i] = int64(len(sw.file))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var storeBytes int64
	for _, n := range fileBytes {
		storeBytes += n
	}

	// Manifest last: its atomic rename is the commit point of the ingest.
	manifest := encodeManifest(store)
	if err := durable.Commit(fs, dir, manifestName, storeTmpPattern, manifest); err != nil {
		return nil, nil, fmt.Errorf("trace: ingest: writing manifest: %w", err)
	}
	storeBytes += int64(len(manifest))

	stats := &IngestStats{
		Functions:  len(fns),
		Shards:     p,
		Slots:      slots,
		Events:     events,
		SpillRuns:  sp.spills,
		StoreBytes: storeBytes,

		PassWall:   tShards.Sub(tPass),
		ShardsWall: time.Since(tShards),
	}
	return store, stats, nil
}

// spillName is the one spill file of an ingest, inside its scratch
// directory.
const spillName = "events.spill"

// eventSize is an Event's size in the spill file: slot, then count, each a
// little-endian int32.
const eventSize = 8

// ingestChunk is the size in bytes of the buffer the spill is encoded
// through and of each shard worker's read buffer: 32 Ki events.
const ingestChunk = 1 << 18

// ingestRow is a non-empty CSV row's entry in the row index: its function
// and its event count. The row's events follow the previous row's, in the
// spill file or in the buffer.
type ingestRow struct {
	fid FuncID
	n   int32
}

// ingestSpill is pass 1's event store: every non-empty row's events in
// arrival order, rows[:fileRows]' in the spill file and the rest's in buf,
// and the row index over both. Spills happen between rows, so no row
// straddles the file and the buffer.
type ingestSpill struct {
	dir    string // where the spill file is made
	budget int    // the buffer spills once it holds this many events

	rows     []ingestRow
	sizes    []int32 // events per function, by FuncID
	buf      []Event
	fileRows int
	file     *os.File // nil until the first spill
	spills   int
	chunk    []byte // encodes the buffer into the spill file
}

// add appends one row of function id's events (ascending slots), spilling
// the buffer once it reaches the budget. A function's sizes entry exists
// from its first row on, empty or not.
func (s *ingestSpill) add(id FuncID, evs []Event) error {
	for len(s.sizes) <= int(id) {
		s.sizes = append(s.sizes, 0)
	}
	if len(evs) == 0 {
		return nil
	}
	s.sizes[id] += int32(len(evs))
	s.rows = append(s.rows, ingestRow{fid: id, n: int32(len(evs))})
	s.buf = append(reserveEvents(s.buf, len(evs), s.budget), evs...)
	if len(s.buf) < s.budget {
		return nil
	}
	return s.spill()
}

// spill appends the buffer to the spill file, made on the first spill, and
// empties it.
func (s *ingestSpill) spill() error {
	if s.file == nil {
		f, err := os.Create(filepath.Join(s.dir, spillName))
		if err != nil {
			return err
		}
		s.file, s.chunk = f, make([]byte, ingestChunk)
	}
	for evs := s.buf; len(evs) > 0; {
		n := min(len(evs), len(s.chunk)/eventSize)
		for k, e := range evs[:n] {
			binary.LittleEndian.PutUint32(s.chunk[k*eventSize:], uint32(e.Slot))
			binary.LittleEndian.PutUint32(s.chunk[k*eventSize+4:], uint32(e.Count))
		}
		if _, err := s.file.Write(s.chunk[:n*eventSize]); err != nil {
			return err
		}
		evs = evs[n:]
	}
	s.fileRows = len(s.rows)
	s.spills++
	s.buf = s.buf[:0]
	return nil
}

// close closes the spill file, if one was made.
func (s *ingestSpill) close() {
	if s.file != nil {
		s.file.Close()
	}
}

// reserveEvents returns buf with room for n more events. Capacities are
// the most the spill rule lets the buffer hold (the budget plus one row, a
// day's worth of slots) halved k times, and each growth at least doubles:
// all of the growth together allocates less than twice the final capacity,
// and a toy trace never pays for the budget.
func reserveEvents(buf []Event, n, budget int) []Event {
	need := len(buf) + n
	if need <= cap(buf) {
		return buf
	}
	c := budget + slotsPerDay
	if c < budget { // overflowed: a budget that never spills
		c = math.MaxInt
	}
	for c/2 >= max(need, 2*cap(buf)) {
		c /= 2
	}
	grown := make([]Event, len(buf), c)
	copy(grown, buf)
	return grown
}

// resized returns s at length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// shardWorker is the scratch one shard-stage worker reuses from shard to
// shard: the assembler's index arrays and event arena, the spill read chunk
// and the encoded file.
type shardWorker struct {
	local   []int32 // global FuncID -> local index in the current shard
	offsets []int32 // local index -> first event in arena; one past the end last
	fill    []int32 // local index -> the arena position its next event goes to
	arena   []Event // every series of the current shard
	chunk   []byte
	file    []byte
}

// newShardWorker sizes a worker's arena for the largest shard. Only an
// ingest that spilled needs a read chunk.
func newShardWorker(largest int, spilled bool) *shardWorker {
	sw := &shardWorker{arena: make([]Event, largest)}
	if spilled {
		sw.chunk = make([]byte, ingestChunk)
	}
	return sw
}

// assemble builds shard i's full (unsplit) view out of sp: metadata
// re-IDed densely in ascending global order (the ShardBy contract) and
// every series gathered and normalized, exactly as ReadCSV + ShardBy
// produce. Returns the view and its total event count after normalization.
// The series are carved out of the worker's arena: the view is valid until
// the next call.
func (sw *shardWorker) assemble(fns []Function, part *Partition, i, slots int, sp *ingestSpill) (*ShardView, int64, error) {
	// A function's events take the next sizes[g] places of the arena.
	members := part.Members(i)
	sw.local = resized(sw.local, len(fns))
	sw.offsets = resized(sw.offsets, len(members)+1)
	sw.offsets[0] = 0
	for li, g := range members {
		sw.local[g] = int32(li)
		sw.offsets[li+1] = sw.offsets[li] + sp.sizes[g]
	}
	sw.fill = append(sw.fill[:0], sw.offsets[:len(members)]...)
	sw.arena = resized(sw.arena, int(sw.offsets[len(members)]))
	if err := sw.gather(sp, part, i); err != nil {
		return nil, 0, err
	}

	// A function's rows arrive in day order and each row ascends, so every
	// series is already sorted; normalize keeps the store's bytes those of
	// ReadCSV's series by construction.
	sub := NewTrace(slots)
	sub.Functions = make([]Function, len(members))
	sub.Series = make([]Series, len(members))
	var total int64
	for li, g := range members {
		f := fns[g]
		f.ID = FuncID(li)
		sub.Functions[li] = f
		sub.Series[li] = normalize(sw.arena[sw.offsets[li]:sw.offsets[li+1]])
		total += int64(len(sub.Series[li]))
	}
	return &ShardView{Trace: sub, Index: i, Global: members}, total, nil
}

// gather copies shard i's rows, in arrival order, to their functions' next
// places in the arena: spilled rows with one read per maximal run of
// file-adjacent rows of the shard, buffered rows in place.
func (sw *shardWorker) gather(sp *ingestSpill, part *Partition, i int) error {
	spilled := sp.rows[:sp.fileRows]
	var at int64 // the file position, in events, of spilled[k]
	for k := 0; k < len(spilled); {
		if part.ShardOf(spilled[k].fid) != i {
			at += int64(spilled[k].n)
			k++
			continue
		}
		start, from := k, at
		for ; k < len(spilled) && part.ShardOf(spilled[k].fid) == i; k++ {
			at += int64(spilled[k].n)
		}
		if err := sw.readRun(sp.file, spilled[start:k], from, at); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	pos := 0
	for _, r := range sp.rows[sp.fileRows:] {
		if part.ShardOf(r.fid) == i {
			li := sw.local[r.fid]
			copy(sw.arena[sw.fill[li]:], sp.buf[pos:pos+int(r.n)])
			sw.fill[li] += r.n
		}
		pos += int(r.n)
	}
	return nil
}

// readRun reads the spilled events [from, to), which are rows' events, into
// the arena through the worker's chunk: one ReadAt per chunk. ReadAt is
// pread, so workers share the file.
func (sw *shardWorker) readRun(f *os.File, rows []ingestRow, from, to int64) error {
	var li, left int32 // the current row's function and its events still to read
	for from < to {
		recs := sw.chunk[:min(to-from, int64(len(sw.chunk)/eventSize))*eventSize]
		if n, err := f.ReadAt(recs, from*eventSize); n < len(recs) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("reading %s at byte %d: %w", spillName, from*eventSize, err)
		}
		from += int64(len(recs) / eventSize)
		for len(recs) > 0 {
			if left == 0 {
				li, left = sw.local[rows[0].fid], rows[0].n
				rows = rows[1:]
			}
			dst := sw.arena[sw.fill[li]:][:min(int(left), len(recs)/eventSize)]
			for k := range dst {
				dst[k] = Event{
					Slot:  int32(binary.LittleEndian.Uint32(recs[k*eventSize:])),
					Count: int32(binary.LittleEndian.Uint32(recs[k*eventSize+4:])),
				}
			}
			sw.fill[li] += int32(len(dst))
			left -= int32(len(dst))
			recs = recs[len(dst)*eventSize:]
		}
	}
	return nil
}
