package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/durable"
)

// Streaming trace ingestion: one pass over an arbitrarily large Azure-format
// CSV into the columnar shard store, without ever materializing the full
// trace.
//
// The pass keeps O(functions) metadata in memory (the union-find partition
// needs every function's app and user before shards can be assigned) but
// never the event series: parsed events accumulate in a bounded buffer and
// spill to flat run files on disk when it fills. After the pass the
// canonical app/user-closed partition is computed with the exact same
// PartitionFunctions call a materialized run uses, the spilled runs are
// scattered into one spill file per shard, and the shards are then
// assembled — normalize, fingerprint, encode, commit — by one FanOut over
// them, each worker reusing scratch sized for the largest shard. Peak memory
// is O(function metadata + buffer budget + W × largest shard) for W =
// min(GOMAXPROCS, shards) workers, and the files are the same bytes at any
// W.

// defaultIngestBudget is the in-memory event buffer size before spilling:
// 4Mi events ≈ 48 MiB. The paper-scale Azure trace (weeks over tens of
// thousands of apps) spills a handful of runs; toy traces never spill.
const defaultIngestBudget = 4 << 20

// IngestOptions tunes IngestCSV.
type IngestOptions struct {
	// Shards is the partition width P (the store's shard count is fixed at
	// ingest time). Values < 1 mean 1.
	Shards int
	// MaxBufferedEvents bounds the in-memory event buffer; when the buffer
	// fills, a sorted run spills to disk. Values < 1 mean the 4Mi-event
	// default. Tests set tiny values to force the spill path.
	MaxBufferedEvents int
}

// IngestStats reports what one IngestCSV pass did.
type IngestStats struct {
	Functions  int   // distinct functions ingested
	Shards     int   // store shard count
	Slots      int   // full trace span in slots (train plus simulation)
	Events     int64 // sparse events written (invoked minutes)
	SpillRuns  int   // runs spilled to disk (0 when the buffer sufficed)
	StoreBytes int64 // total size of the written shard files and manifest

	// Wall time of each stage, as the ingest measures it: pass 1 (the row
	// stream), the scatter (partition, then routing every event to its
	// shard) and the shard stage (assemble, fingerprint, encode and commit
	// every shard, then the manifest).
	PassWall, ScatterWall, ShardsWall time.Duration
}

// ingestEvent is one parsed invocation observation tagged with its global
// function: the unit the spill files hold, 12 bytes encoded.
type ingestEvent struct {
	fid   FuncID
	slot  int32
	count int32
}

const ingestRecSize = 12

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
// spill files are scratch and stay on the real filesystem). Only
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

	// Pass 1: stream rows, collecting metadata and buffering events.
	tPass := time.Now()
	st := newCSVStream(r)
	var (
		fns    []Function
		buf    []ingestEvent
		runs   int
		slots  int
		events int64
	)
	spillRun := func() error {
		f, err := os.Create(filepath.Join(spillDir, fmt.Sprintf("run-%06d", runs)))
		if err != nil {
			return err
		}
		if err := writeIngestRecs(f, buf); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		runs++
		buf = buf[:0]
		return nil
	}
	for {
		row, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if row.New {
			fns = append(fns, Function{ID: row.ID, Name: row.Name, App: row.App, User: row.User, Trigger: row.Trigger})
		}
		if row.EndSlot > slots {
			slots = row.EndSlot
		}
		buf = reserveIngest(buf, len(row.Events), budget)
		for _, e := range row.Events {
			buf = append(buf, ingestEvent{fid: row.ID, slot: e.Slot, count: e.Count})
		}
		events += int64(len(row.Events))
		if len(buf) >= budget {
			if err := spillRun(); err != nil {
				return nil, nil, fmt.Errorf("trace: ingest: spilling run: %w", err)
			}
		}
	}

	// The canonical partition — the same call, over the same
	// first-appearance-ordered metadata, as the materialized path.
	tScatter := time.Now()
	part := PartitionFunctions(fns, p)

	// Scatter: route every spilled run (in spill order, which preserves each
	// function's day order) plus the residual buffer into one spill file per
	// shard. When nothing spilled, the buffer is grouped by shard in place.
	// Either way counts[i] is shard i's event count.
	var counts []int
	if runs == 0 {
		counts = groupByShard(buf, part, p)
	} else if counts, err = scatterRuns(spillDir, runs, buf, part, p); err != nil {
		return nil, nil, fmt.Errorf("trace: ingest: %w", err)
	}

	// Assemble and write each shard: one FanOut item per shard, on up to
	// GOMAXPROCS workers. A shard's view is dead once its file is committed,
	// so each worker reuses one set of scratch sized for the largest shard
	// (shardWorker), decoding spilled records into its share of the spent
	// spill buffer. Item i writes only store.meta[i] and fileBytes[i].
	tShards := time.Now()
	store := &Store{dir: dir, fs: fs, shards: p, functions: len(fns), slots: slots, meta: make([]storeShardMeta, p)}
	largest := slices.Max(counts)
	starts := make([]int, p) // shard i's first event in the grouped buffer
	for i := 1; i < p; i++ {
		starts[i] = starts[i-1] + counts[i-1]
	}
	width := min(runtime.GOMAXPROCS(0), p)
	workers := make([]*shardWorker, width)
	fileBytes := make([]int64, p)
	err = FanOut(width, p, func(w, i int) error {
		if workers[w] == nil {
			workers[w] = newShardWorker(w, largest, runs > 0, buf)
		}
		sw := workers[w]
		var evs []ingestEvent
		if runs == 0 {
			evs = buf[starts[i] : starts[i]+counts[i]]
		} else {
			var err error
			if evs, err = sw.readSpill(filepath.Join(spillDir, shardSpillName(i)), counts[i]); err != nil {
				return fmt.Errorf("trace: ingest: shard %d spill: %w", i, err)
			}
		}
		sv, shardEvents := sw.asm.assemble(fns, part, i, slots, evs)
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
		SpillRuns:  runs,
		StoreBytes: storeBytes,

		PassWall:    tScatter.Sub(tPass),
		ScatterWall: tShards.Sub(tScatter),
		ShardsWall:  time.Since(tShards),
	}
	return store, stats, nil
}

// shardSpillName names shard i's scatter spill file.
func shardSpillName(i int) string { return fmt.Sprintf("shard-%04d.spill", i) }

// reserveIngest returns buf with room for n more events. Capacities are
// the most the spill rule lets the buffer hold (the budget plus one row, a
// day's worth of slots) halved k times, and each growth at least doubles:
// all of the growth together allocates less than twice the final capacity,
// and a toy trace never pays for the budget.
func reserveIngest(buf []ingestEvent, n, budget int) []ingestEvent {
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
	grown := make([]ingestEvent, len(buf), c)
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

func putIngestRec(rec []byte, e ingestEvent) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(e.fid))
	binary.LittleEndian.PutUint32(rec[4:], uint32(e.slot))
	binary.LittleEndian.PutUint32(rec[8:], uint32(e.count))
}

func getIngestRec(rec []byte) ingestEvent {
	return ingestEvent{
		fid:   FuncID(binary.LittleEndian.Uint32(rec[0:])),
		slot:  int32(binary.LittleEndian.Uint32(rec[4:])),
		count: int32(binary.LittleEndian.Uint32(rec[8:])),
	}
}

// writeIngestRecs appends events to w as flat 12-byte records.
func writeIngestRecs(w io.Writer, evs []ingestEvent) error {
	bw := bufio.NewWriterSize(w, 1<<18)
	var rec [ingestRecSize]byte
	for _, e := range evs {
		putIngestRec(rec[:], e)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readRecs feeds every record of f to fn, a chunk's worth of records per
// call. chunk must hold a whole number of records.
func readRecs(f *os.File, chunk []byte, fn func(recs []byte) error) error {
	for {
		n, err := io.ReadFull(f, chunk)
		if n%ingestRecSize != 0 {
			return fmt.Errorf("reading %s: %w", filepath.Base(f.Name()), io.ErrUnexpectedEOF)
		}
		if err := fn(chunk[:n]); err != nil {
			return err
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", filepath.Base(f.Name()), err)
		}
	}
}

// ingestChunk is the read buffer of the scatter and of each shard worker:
// a whole number of records, about 256 KiB.
const ingestChunk = (1 << 18) / ingestRecSize * ingestRecSize

// shardWorker is the scratch one shard-stage worker reuses from shard to
// shard: the assembler, the decoded records of a spilled shard, the spill
// read chunk and the encoded file.
type shardWorker struct {
	asm   shardAssembler
	evs   []ingestEvent
	chunk []byte
	file  []byte
}

// newShardWorker sizes worker w's scratch for the largest shard. A spilled
// ingest decodes each shard's records into w's share of the spent spill
// buffer's capacity, or into a slice of w's own where that share does not
// fit; an in-memory ingest reads its shards in place and needs neither
// records nor a chunk.
func newShardWorker(w, largest int, spilled bool, spent []ingestEvent) *shardWorker {
	sw := &shardWorker{asm: shardAssembler{arena: make([]Event, largest)}}
	if spilled {
		if lo, hi := w*largest, (w+1)*largest; hi <= cap(spent) {
			sw.evs = spent[lo:lo:hi]
		} else {
			sw.evs = make([]ingestEvent, 0, largest)
		}
		sw.chunk = make([]byte, ingestChunk)
	}
	return sw
}

// readSpill decodes the spill file at path, into which the scatter routed
// n records, through the worker's chunk into its record storage.
func (sw *shardWorker) readSpill(path string, n int) ([]ingestEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs := sw.evs[:0]
	err = readRecs(f, sw.chunk, func(recs []byte) error {
		if len(evs)+len(recs)/ingestRecSize > n {
			return fmt.Errorf("spill file %s holds more than its %d records", filepath.Base(path), n)
		}
		for k := 0; k < len(recs); k += ingestRecSize {
			evs = append(evs, getIngestRec(recs[k:]))
		}
		return nil
	})
	if err == nil && len(evs) != n {
		err = fmt.Errorf("spill file %s holds %d of its %d records", filepath.Base(path), len(evs), n)
	}
	return evs, err
}

// groupByShard groups the in-memory buffer by shard in place, shard 0's
// events first, and returns each shard's event count. It is a counting
// distribution: each event out of place is carried to the next free
// position of its shard's range, and the event it displaces carried on in
// turn, until the cycle closes. Order within a shard follows from the
// buffer's order alone, so it is deterministic, though not arrival order;
// assemble normalizes each series, which makes the store independent of it.
func groupByShard(buf []ingestEvent, part *Partition, p int) (counts []int) {
	counts = make([]int, p)
	for _, e := range buf {
		counts[part.ShardOf(e.fid)]++
	}
	next := make([]int, p) // shard i's first position not yet filled
	end := make([]int, p)  // one past shard i's range
	for i := range p {
		if i > 0 {
			next[i] = end[i-1]
		}
		end[i] = next[i] + counts[i]
	}
	for i := range p {
		for ; next[i] < end[i]; next[i]++ {
			e := buf[next[i]]
			for sh := part.ShardOf(e.fid); sh != i; sh = part.ShardOf(e.fid) {
				buf[next[sh]], e = e, buf[next[sh]]
				next[sh]++
			}
			buf[next[i]] = e
		}
	}
	return counts
}

// scatterRuns streams every run file (in spill order) plus the residual
// in-memory buffer through the partition into one spill file per shard, and
// returns each shard's record count. Writers are buffered, so the scatter is
// one sequential read of the runs and P sequential writes regardless of
// trace size.
func scatterRuns(spillDir string, runs int, residual []ingestEvent, part *Partition, p int) ([]int, error) {
	outs := make([]*bufio.Writer, p)
	files := make([]*os.File, p)
	for i := range outs {
		f, err := os.Create(filepath.Join(spillDir, shardSpillName(i)))
		if err != nil {
			for _, g := range files {
				if g != nil {
					g.Close()
				}
			}
			return nil, err
		}
		files[i] = f
		outs[i] = bufio.NewWriterSize(f, 1<<16)
	}
	closeAll := func() error {
		var first error
		for i, w := range outs {
			if err := w.Flush(); err != nil && first == nil {
				first = err
			}
			if err := files[i].Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	// Records are routed straight out of one read buffer, and the
	// residual's are encoded into it, so the scatter allocates nothing per
	// event.
	chunk := make([]byte, ingestChunk)
	counts := make([]int, p)
	route := func(recs []byte) error {
		for k := 0; k < len(recs); k += ingestRecSize {
			sh := part.ShardOf(FuncID(binary.LittleEndian.Uint32(recs[k:])))
			counts[sh]++
			if _, err := outs[sh].Write(recs[k : k+ingestRecSize]); err != nil {
				return err
			}
		}
		return nil
	}
	scatterRun := func(run int) error {
		f, err := os.Open(filepath.Join(spillDir, fmt.Sprintf("run-%06d", run)))
		if err != nil {
			return err
		}
		defer f.Close()
		return readRecs(f, chunk, route)
	}

	for run := 0; run < runs; run++ {
		if err := scatterRun(run); err != nil {
			closeAll()
			return nil, err
		}
		// Run files are consumed in order exactly once; removing each after
		// its scatter halves the spill directory's peak footprint.
		os.Remove(filepath.Join(spillDir, fmt.Sprintf("run-%06d", run)))
	}
	for len(residual) > 0 {
		n := min(len(residual), len(chunk)/ingestRecSize)
		for k, e := range residual[:n] {
			putIngestRec(chunk[k*ingestRecSize:], e)
		}
		if err := route(chunk[:n*ingestRecSize]); err != nil {
			closeAll()
			return nil, err
		}
		residual = residual[n:]
	}
	return counts, closeAll()
}

// shardAssembler is the storage assemble reuses from shard to shard.
type shardAssembler struct {
	local   []int32 // global FuncID -> local index in the current shard
	offsets []int32 // local index -> first event in arena; one past the end last
	fill    []int32
	arena   []Event // every series of the current shard
}

// assemble builds shard i's full (unsplit) view from its scattered events:
// metadata re-IDed densely in ascending global order (the ShardBy contract)
// and every series normalized, exactly as ReadCSV + ShardBy produce. Returns
// the view and its total event count after normalization. The series are
// carved out of the assembler's arena: the view is valid until the next
// call.
func (a *shardAssembler) assemble(fns []Function, part *Partition, i, slots int, evs []ingestEvent) (*ShardView, int64) {
	members := part.Members(i)
	a.local = resized(a.local, len(fns))
	for li, g := range members {
		a.local[g] = int32(li)
	}

	// Count, then fill, preserving evs' order within each function
	// (normalize sorts, so order only needs to be deterministic).
	a.offsets = resized(a.offsets, len(members)+1)
	clear(a.offsets)
	for _, e := range evs {
		a.offsets[a.local[e.fid]+1]++
	}
	for li := range members {
		a.offsets[li+1] += a.offsets[li]
	}
	a.fill = append(a.fill[:0], a.offsets[:len(members)]...)
	a.arena = resized(a.arena, len(evs))
	for _, e := range evs {
		li := a.local[e.fid]
		a.arena[a.fill[li]] = Event{Slot: e.slot, Count: e.count}
		a.fill[li]++
	}

	sub := NewTrace(slots)
	sub.Functions = make([]Function, len(members))
	sub.Series = make([]Series, len(members))
	var total int64
	for li, g := range members {
		f := fns[g]
		f.ID = FuncID(li)
		sub.Functions[li] = f
		sub.Series[li] = normalize(a.arena[a.offsets[li]:a.offsets[li+1]])
		total += int64(len(sub.Series[li]))
	}
	return &ShardView{Trace: sub, Index: i, Global: members}, total
}
