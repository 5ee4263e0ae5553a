package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
)

// HashConfig returns a stable 64-bit content hash of a plain configuration
// value: every field of a struct (recursively, exported or not, in
// declaration order, tagged with its name) is folded into an FNV-1a digest,
// so a field added to a config struct changes the hash without anyone
// listing it. The serving snapshot's config check (core's EncodeState) and
// the experiments' shared comparison key on it.
//
// Only value-like kinds are supported: booleans, integers, floats, strings,
// and arrays/slices/structs of those. Maps, pointers, interfaces, channels
// and funcs panic — a config holding one has no canonical byte order, and
// silently skipping it would let two different behaviours share a hash.
func HashConfig(cfg any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(cfg))
	return h.Sum64()
}

// hashWriter is the subset of hash.Hash64 hashValue needs.
type hashWriter interface{ Write(p []byte) (int, error) }

func hashValue(h hashWriter, v reflect.Value) {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			buf[0] = 1
		}
		h.Write(buf[:1])
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
		h.Write(buf[:])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
		h.Write(buf[:])
	case reflect.Float32, reflect.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		h.Write(buf[:])
	case reflect.String:
		s := v.String()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	case reflect.Slice, reflect.Array:
		// Length delimits the elements so ([1],[2]) and ([1,2],[]) differ.
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Len()))
		h.Write(buf[:])
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		binary.LittleEndian.PutUint64(buf[:], uint64(t.NumField()))
		h.Write(buf[:])
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			binary.LittleEndian.PutUint64(buf[:], uint64(len(name)))
			h.Write(buf[:])
			h.Write([]byte(name))
			hashValue(h, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("sim: HashConfig cannot hash kind %s (type %s); hashed configs must be plain values", v.Kind(), v.Type()))
	}
}

// ConfigHasher fingerprints a policy's complete behaviour-affecting
// configuration. No engine reads it: it stays only because the benchmark
// (benchmark/wrap.go) asserts that its traced SPES forwards it, and goes
// with that assertion.
type ConfigHasher interface {
	ConfigHash() uint64
}
