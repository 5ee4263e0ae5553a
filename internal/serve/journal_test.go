package serve

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/durable"
)

// FuzzOpenJournal holds openJournal's scan on any journal.wal: it never
// panics, returns records with contiguous seqs, heals the file to a line
// boundary that holds exactly those records' lines, and a reopen of the
// healed file returns the same records. With reseal set, every complete
// line of data is a payload framed afresh with its checksum (a final
// fragment stays a torn tail), so mutations reach the batch decoder and
// the events the records share an arena for; each record must equal its
// line decoded alone.
func FuzzOpenJournal(f *testing.F) {
	parent, err := os.ReadFile("testdata/parent-state/journal.wal")
	if err != nil {
		f.Fatal(err)
	}
	var payloads []byte
	for rest := parent; len(rest) > 0; {
		line, n := durable.NextLine(rest)
		p, _ := durable.ParseLine(line)
		payloads = append(append(payloads, p...), '\n')
		rest = rest[n:]
	}
	torn := func(b []byte) []byte { return b[:len(b)-len(b)/200-2] }
	f.Add(parent, false)
	f.Add(torn(parent), false)
	f.Add(payloads, true)
	f.Add(torn(payloads), true)
	f.Add([]byte{}, false)
	path := journalPath(f.TempDir()) // rewritten by every input
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			var framed []byte
			for rest := data; len(rest) > 0; {
				line, n := durable.NextLine(rest)
				if line == nil { // no newline: a torn tail
					framed = append(framed, rest...)
					break
				}
				framed = durable.AppendLine(framed, line)
				rest = rest[n:]
			}
			data = framed
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, records, err := openJournal(durable.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		size := j.size
		j.Close()

		if size < 0 || size > int64(len(data)) || size > 0 && data[size-1] != '\n' {
			t.Fatalf("healed to %d of %d bytes, not a line boundary", size, len(data))
		}
		healed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(healed, data[:size]) {
			t.Fatalf("file holds %d bytes after the heal, want the %d-byte prefix", len(healed), size)
		}
		lines := bytes.SplitAfter(healed, []byte("\n"))
		lines = lines[:len(lines)-1] // healed ends in a newline: the last piece is empty
		if len(lines) != len(records) {
			t.Fatalf("%d records from %d kept lines", len(records), len(lines))
		}
		for i, r := range records {
			if i > 0 && r.Seq != records[i-1].Seq+1 {
				t.Fatalf("record %d has seq %d after %d", i, r.Seq, records[i-1].Seq)
			}
			payload, ok := durable.ParseLine(lines[i][:len(lines[i])-1])
			var alone Batch
			if _, err := decodeBatch(payload, &alone, []EventPair{{7, 7}}); !ok || err != nil || !reflect.DeepEqual(alone, r) {
				t.Fatalf("record %d = %+v, its line decoded alone = %+v (line ok %t, %v)", i, r, alone, ok, err)
			}
		}

		j, again, err := openJournal(durable.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		if j.size != size || len(again) != len(records) || len(records) > 0 && !reflect.DeepEqual(again, records) {
			t.Fatalf("reopen: %d records over %d bytes, want %d over %d", len(again), j.size, len(records), size)
		}
		j.Close()
	})
}
