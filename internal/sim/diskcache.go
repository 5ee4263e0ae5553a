package sim

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/durable"
	"repro/internal/trace"
)

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
