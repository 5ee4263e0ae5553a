package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
)

// The store decoders keep the rule of every format built on durable: for
// bytes they did not write, an error wrapping ErrStoreCorrupt or the value
// that re-encodes to exactly those bytes — never a panic, never a wrong
// value. The fuzz input is a file's body; the targets seal it in a fresh
// envelope (and a shard body's column blocks in fresh block checksums), so
// mutations reach the structural checks instead of all failing the CRC.

// storeFuzzSeeds ingests a small two-shard store and returns its shard and
// manifest bodies, each whole and truncated.
func storeFuzzSeeds(f *testing.F) (shards, manifests [][]byte) {
	tr := NewTrace(slotsPerDay)
	for i, evs := range [][]Event{
		{{Slot: 3, Count: 1}, {Slot: 700, Count: 4}},
		{{Slot: 0, Count: 2}},
		{},
		{{Slot: 5, Count: 1}, {Slot: 6, Count: 1}, {Slot: 1439, Count: 9}},
		{{Slot: 60, Count: 3}},
	} {
		trig := TriggerHTTP
		if i%2 == 1 {
			trig = TriggerTimer
		}
		tr.AddFunction(string(rune('a'+i)), string(rune('p'+i%3)), string(rune('u'+i%2)), trig, evs)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, tr); err != nil {
		f.Fatal(err)
	}
	store, _, err := IngestCSV(&csv, filepath.Join(f.TempDir(), "store"), IngestOptions{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	body := func(name, magic string) []byte {
		data, err := os.ReadFile(filepath.Join(store.dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return data[len(magic) : len(data)-4]
	}
	withCuts := func(b []byte) [][]byte {
		return [][]byte{b, b[:len(b)/2], b[:len(b)-1], b[:4], {}}
	}
	for i := 0; i < store.NumShards(); i++ {
		shards = append(shards, withCuts(body(shardFileName(i), storeMagic))...)
	}
	return shards, withCuts(body(manifestName, storeManifestTag))
}

// seal wraps body in the envelope the encoders write under magic.
func seal(magic string, body []byte) []byte {
	e := durable.NewEnc(magic, len(magic)+len(body)+4)
	e.B = append(e.B, body...)
	return e.Seal()
}

// sealShardBody gives a shard body's column blocks fresh checksums, as far as
// their frames lie inside it, and seals it.
func sealShardBody(body []byte) []byte {
	body = bytes.Clone(body)
	end := len(body) - len(storeFooterMagic)
	at := 36 // the header after the magic
	for range numColumns {
		if at+16 > end {
			break
		}
		n := binary.LittleEndian.Uint64(body[at+4:])
		if n > uint64(end-at-16) {
			break
		}
		payload := body[at+12 : at+12+int(n)]
		binary.LittleEndian.PutUint32(body[at+12+int(n):], durable.Checksum(payload))
		at += 16 + int(n)
	}
	return seal(storeMagic, body)
}

// headerField reads the little-endian header field at off of a shard body,
// zero past its end.
func headerField(body []byte, off, size int) uint64 {
	if off+size > len(body) {
		return 0
	}
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(body[off:]))
	}
	return binary.LittleEndian.Uint64(body[off:])
}

func FuzzDecodeShardFile(f *testing.F) {
	shards, _ := storeFuzzSeeds(f)
	for _, s := range shards {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// The manifest's expectations are taken from the body's own header,
		// so a mutated header still reaches the columns.
		shard, nShards := int(headerField(body, 4, 4)), int(headerField(body, 8, 4))
		slots, fp := int(headerField(body, 12, 4)), headerField(body, 28, 8)
		data := sealShardBody(body)
		sv, err := decodeShardFile(data, shard, nShards, slots, fp)
		if err != nil {
			if !errors.Is(err, ErrStoreCorrupt) || sv != nil {
				t.Fatalf("error %v (view %v) is not a bare ErrStoreCorrupt", err, sv)
			}
			return
		}
		var events int64
		for _, s := range sv.Series {
			events += int64(len(s))
		}
		if again := encodeShardFile(nil, sv, nShards, events, fp); !bytes.Equal(again, data) {
			t.Fatalf("decoded shard re-encodes to %d bytes that differ from its %d-byte file", len(again), len(data))
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	_, manifests := storeFuzzSeeds(f)
	for _, m := range manifests {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := seal(storeManifestTag, body)
		s, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrStoreCorrupt) || s != nil {
				t.Fatalf("error %v (store %v) is not a bare ErrStoreCorrupt", err, s)
			}
			return
		}
		if again := encodeManifest(s); !bytes.Equal(again, data) {
			t.Fatalf("decoded manifest re-encodes to %x, file is %x", again, data)
		}
	})
}
