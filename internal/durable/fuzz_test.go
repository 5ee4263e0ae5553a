package durable

import (
	"bytes"
	"reflect"
	"testing"
)

// The one rule every format built on this package promises for bytes it did
// not write: an error or the correct value — never a panic, never an
// allocation out of proportion to the input, never a wrong value.

// fuzzRecord is the fixed field sequence FuzzDec reads: one of each cursor
// method that sizes something by a count taken from the input.
type fuzzRecord struct {
	tag    uint8
	n      uint64
	name   string
	ints   []int
	labels []string
}

func (r *fuzzRecord) encode() []byte {
	e := &Enc{}
	e.U8(r.tag)
	e.U64(r.n)
	e.Str(r.name)
	e.Ints(r.ints)
	e.Dict(r.labels)
	return e.B
}

func decodeFuzzRecord(data []byte) (*fuzzRecord, error) {
	d := NewDec(data)
	r := &fuzzRecord{tag: d.U8(), n: d.U64(), name: d.Str(), ints: d.Ints(), labels: d.Dict()}
	return r, d.Done()
}

func FuzzDec(f *testing.F) {
	f.Add((&fuzzRecord{tag: 1, n: 1 << 40, name: "fn", ints: []int{1, -2, 3}, labels: []string{"http", "timer", "http"}}).encode())
	f.Add((&fuzzRecord{labels: []string{}}).encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeFuzzRecord(data)
		if len(r.name) > len(data) || len(r.ints)*8 > len(data) || len(r.labels) > len(data) {
			t.Fatalf("decoded sizes (%d, %d, %d) exceed the %d input bytes", len(r.name), len(r.ints), len(r.labels), len(data))
		}
		if err != nil {
			return
		}
		// A clean decode must be a fixed point: what it read re-encodes to
		// something that reads back the same.
		again, err := decodeFuzzRecord(r.encode())
		if err != nil || !reflect.DeepEqual(r, again) {
			t.Fatalf("decode is not stable: %+v then %+v (err %v)", r, again, err)
		}
	})
}

func FuzzUnseal(f *testing.F) {
	f.Add([]byte("payload"), uint(3))
	f.Add([]byte{}, uint(0))
	f.Add(NewEnc("MAGIC", 0).Seal(), uint(40))
	f.Fuzz(func(t *testing.T, data []byte, bit uint) {
		// Arbitrary bytes: rejected, or exactly what sealing the body
		// produces.
		if body, err := Unseal(data, "MAGIC"); err == nil {
			e := NewEnc("MAGIC", 0)
			e.B = append(e.B, body...)
			if !bytes.Equal(e.Seal(), data) {
				t.Fatalf("Unseal accepted %q, which is not the envelope of its body %q", data, body)
			}
		}
		// A sealed envelope round-trips, and no single flipped bit gets
		// through.
		e := NewEnc("MAGIC", 0)
		e.B = append(e.B, data...)
		sealed := e.Seal()
		if body, err := Unseal(sealed, "MAGIC"); err != nil || !bytes.Equal(body, data) {
			t.Fatalf("round trip: body %q, err %v", body, err)
		}
		bit %= uint(len(sealed) * 8)
		sealed[bit/8] ^= 1 << (bit % 8)
		if _, err := Unseal(sealed, "MAGIC"); err == nil {
			t.Fatalf("envelope with bit %d flipped verified", bit)
		}
	})
}

func FuzzLines(f *testing.F) {
	log := AppendLine(AppendLine(nil, []byte(`{"seq":1}`)), []byte("u2 \"p\" 0 0 1"))
	f.Add(log)
	f.Add(append(bytes.Clone(log), "deadbeef torn"...))
	f.Add([]byte("\n\nnot a record\n00000000 \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Scanning arbitrary bytes terminates, covers them exactly, and only
		// accepts lines that are byte for byte what AppendLine writes.
		for off := 0; off < len(data); {
			line, n := NextLine(data[off:])
			if n <= 0 || off+n > len(data) {
				t.Fatalf("NextLine spans %d bytes at offset %d of %d", n, off, len(data))
			}
			if payload, ok := ParseLine(line); ok && !bytes.Equal(AppendLine(nil, payload), data[off:off+n]) {
				t.Fatalf("accepted line %q is not the framing of its payload %q", data[off:off+n], payload)
			}
			off += n
		}
		// Any newline-free payload survives framing.
		payload := bytes.ReplaceAll(data, []byte("\n"), []byte(" "))
		line, n := NextLine(AppendLine(nil, payload))
		if got, ok := ParseLine(line); !ok || !bytes.Equal(got, payload) || n != len(payload)+10 {
			t.Fatalf("framed payload %q read back as %q (ok %v, span %d)", payload, got, ok, n)
		}
	})
}
