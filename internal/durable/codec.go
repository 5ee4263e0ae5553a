package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The envelope every whole-file format shares (all integers little-endian):
//
//	magic | caller's header and payload | CRC-32C u32
//
// NewEnc starts one, Seal closes it, Unseal verifies it. The checksum covers
// every preceding byte, so truncation or a flipped bit anywhere — magic,
// header or payload — fails verification before a single field is decoded.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the one CRC-32C (Castagnoli: hardware-accelerated, so warm
// loads are not checksum-bound) behind every file, block and record
// checksum.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Enc is the append-only encoder: fixed-width little-endian fields onto B.
// Dec mirrors it method for method.
type Enc struct{ B []byte }

// NewEnc starts an envelope: magic, with room for capacity more bytes.
func NewEnc(magic string, capacity int) *Enc {
	return &Enc{B: append(make([]byte, 0, len(magic)+capacity), magic...)}
}

func (e *Enc) U8(v uint8)    { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a u32 length and the bytes of s.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Ints appends an i64 count and each value as an i64.
func (e *Enc) Ints(v []int) {
	e.I64(int64(len(v)))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// Dict appends a dictionary-encoded label column: the distinct labels in
// first-appearance order (u32 count, then Str each), then a u32 label count
// and one fixed-width index per label. The index width (1, 2 or 4 bytes) is
// derived from the dictionary size identically by both sides.
func (e *Enc) Dict(labels []string) {
	var dict []string
	idx := make(map[string]uint32)
	for _, s := range labels {
		if _, ok := idx[s]; !ok {
			idx[s] = uint32(len(dict))
			dict = append(dict, s)
		}
	}
	e.U32(uint32(len(dict)))
	for _, s := range dict {
		e.Str(s)
	}
	e.U32(uint32(len(labels)))
	w := dictWidth(len(dict))
	for _, s := range labels {
		switch v := idx[s]; w {
		case 1:
			e.U8(uint8(v))
		case 2:
			e.B = binary.LittleEndian.AppendUint16(e.B, uint16(v))
		default:
			e.U32(v)
		}
	}
}

// DictSize returns the number of bytes Dict appends for labels, so an
// encoder can be sized exactly before the column is written.
func DictSize(labels []string) int {
	seen := make(map[string]struct{})
	n := 8 // the dictionary and label counts
	for _, s := range labels {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			n += 4 + len(s)
		}
	}
	return n + dictWidth(len(seen))*len(labels)
}

func dictWidth(dictLen int) int {
	switch {
	case dictLen <= 1<<8:
		return 1
	case dictLen <= 1<<16:
		return 2
	default:
		return 4
	}
}

// Seal closes the envelope with the checksum of everything before it and
// returns the finished bytes.
func (e *Enc) Seal() []byte {
	e.U32(Checksum(e.B))
	return e.B
}

// Unseal verifies an envelope — length, trailing checksum, leading magic —
// and returns what lies between the two.
func Unseal(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if Checksum(body) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	if string(body[:len(magic)]) != magic {
		return nil, fmt.Errorf("wrong magic")
	}
	return body[len(magic):], nil
}

// Dec is the bounds-checked decode cursor. The first read past the end (or
// the first implausible count) latches an error and every later read returns
// zero, so decode code stays linear and checks Err or Done once per section;
// no input can make it panic or allocate more than a small multiple of its
// own length.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a cursor at the start of b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the latched error, if any.
func (d *Dec) Err() error { return d.err }

// Left returns how many bytes remain unread.
func (d *Dec) Left() int { return len(d.b) - d.off }

// Done returns the latched error, or an error if unread bytes remain.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Take returns the next n bytes (aliasing the input), or nil once the cursor
// has failed.
func (d *Dec) Take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail("truncated at offset %d (+%d of %d)", d.off, n, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *Dec) U8() uint8 {
	if s := d.Take(1); s != nil {
		return s[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if s := d.Take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if s := d.Take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Count validates a claimed element count read from the input: n elements of
// at least elemSize bytes each must fit in what is left. The check divides
// rather than multiplies, so no claimed count can overflow it, and a caller
// that sizes an allocation by the result is bounded by the input's length.
func (d *Dec) Count(n int64, elemSize int) int {
	if d.err != nil || n < 0 || n > int64(d.Left()/elemSize) {
		d.fail("count %d × %d bytes exceeds the %d left", n, elemSize, d.Left())
		return 0
	}
	return int(n)
}

// Str reads a u32 length and that many bytes.
func (d *Dec) Str() string { return string(d.Take(d.Count(int64(d.U32()), 1))) }

// Ints reverses Enc.Ints; an empty slice decodes as nil.
func (d *Dec) Ints() []int {
	n := d.Count(d.I64(), 8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	return out
}

// Dict reverses Enc.Dict. It returns nil once the cursor has failed; an
// empty column decodes as an empty non-nil slice. It accepts only what
// Enc.Dict writes — distinct labels, each first indexed in dictionary order
// — so a column that decodes re-encodes to the same bytes.
func (d *Dec) Dict() []string {
	dict := make([]string, d.Count(int64(d.U32()), 4))
	seen := make(map[string]struct{}, len(dict))
	for i := range dict {
		dict[i] = d.Str()
		if _, dup := seen[dict[i]]; dup {
			d.fail("dictionary label %q repeated", dict[i])
		}
		seen[dict[i]] = struct{}{}
	}
	w := dictWidth(len(dict))
	n := d.Count(int64(d.U32()), w)
	blk := d.Take(w * n)
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	next := 0 // the first dictionary entry no index has named yet
	for i := range out {
		var v uint32
		switch w {
		case 1:
			v = uint32(blk[i])
		case 2:
			v = uint32(binary.LittleEndian.Uint16(blk[i*2:]))
		default:
			v = binary.LittleEndian.Uint32(blk[i*4:])
		}
		if int(v) > next || int(v) >= len(dict) {
			d.fail("dictionary index %d past the next new entry %d of %d", v, next, len(dict))
			return nil
		}
		if int(v) == next {
			next++
		}
		out[i] = dict[v]
	}
	if next != len(dict) {
		d.fail("%d of %d dictionary entries unused", len(dict)-next, len(dict))
		return nil
	}
	return out
}
