package trace

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// contentHashRef is ShardView.ContentHash as it was first written, through
// hash/fnv: every field and every event its own write to the hash.
// ContentHash must hash the same byte stream to the same value.
func contentHashRef(sv *ShardView) uint64 {
	h := fnv.New64a()
	io.WriteString(h, fpDomainContent)
	hashU64(h, uint64(sv.Slots))
	hashU64(h, uint64(len(sv.Functions)))
	for li, f := range sv.Functions {
		hashU64(h, uint64(sv.Global[li]))
		io.WriteString(h, f.Name)
		h.Write([]byte{0})
		io.WriteString(h, f.App)
		h.Write([]byte{0})
		io.WriteString(h, f.User)
		h.Write([]byte{0, byte(f.Trigger)})
		s := sv.Series[li]
		hashU64(h, uint64(len(s)))
		var buf [8]byte
		for _, e := range s {
			binary.LittleEndian.PutUint32(buf[:4], uint32(e.Slot))
			binary.LittleEndian.PutUint32(buf[4:], uint32(e.Count))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestContentHashMatchesPerEventReference holds ContentHash to the
// per-event reference: on an empty view, on series of 0 to 129 events,
// on long and empty metadata, and on every shard of a generated workload.
func TestContentHashMatchesPerEventReference(t *testing.T) {
	views := map[string]*ShardView{"empty": {Trace: NewTrace(10)}}
	tr := NewTrace(2000)
	tr.AddFunction("", "", "", TriggerCombination, nil)
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		s := make([]Event, n)
		for i := range s {
			s[i] = Event{Slot: int32(3 * i), Count: int32(i%7 + 1)}
		}
		tr.AddFunction("f", "app", "user", TriggerHTTP, s)
	}
	long := strings.Repeat("x", 700)
	tr.AddFunction(long, long, long, TriggerTimer, []Event{{Slot: 5, Count: 2}})
	views["edges"] = tr.ShardBy(PartitionFunctions(tr.Functions, 1), 0)

	gen, err := Generate(DefaultGeneratorConfig(300, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	part := PartitionFunctions(gen.Functions, 3)
	for i, name := range []string{"gen0", "gen1", "gen2"} {
		views[name] = gen.ShardBy(part, i)
	}
	for name, sv := range views {
		if got, want := sv.ContentHash(), contentHashRef(sv); got != want {
			t.Errorf("%s: ContentHash %#x, per-event reference %#x", name, got, want)
		}
	}
}
