package serve

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/durable"
)

// journal is the daemon's write-ahead log: every accepted batch is appended
// — checksummed — BEFORE any policy state mutates, so a crash at any
// instant loses at most batches the client never saw acknowledged (and will
// retry). One durable record line per batch, the payload its JSON. Append
// is a single write(2) on an O_APPEND descriptor; recovery scans from the
// top and HEALS a torn tail: the first record that is incomplete or fails
// its checksum ends the journal, and the file is truncated back to the last
// good record (a record after a bad one cannot be trusted — the sequence
// chain is broken). The journal is never rotated or truncated by snapshots:
// snapshots only move the replay start, and the full journal is what
// rebuilds the daemon's recorded invocation history (the retrain window
// source) from scratch.
//
// An append that fails may still have persisted a prefix of its record. The
// journal cuts the file back to its last whole record at once, or the next
// record would follow the torn one and be lost with it at the next heal; if
// the cut fails, the journal refuses every later append.
type journal struct {
	fs   durable.FS
	path string
	f    durable.File
	size int64 // bytes of whole records: where the next append starts
	// broken, once set, is every later append's error: the file may end in
	// a torn record that could not be cut off.
	broken error
	// The record being appended — its payload, then its framed line — in
	// buffers reused across appends (the apply loop appends one at a time).
	payload, buf []byte
}

// eventChunk is how many event pairs openJournal allocates at a time (1 MiB).
const eventChunk = 64 << 10

// openJournal opens (creating if absent) the journal at path, replays its
// intact records, and heals any torn tail. The returned records are in
// append order with contiguous sequence numbers.
func openJournal(fs durable.FS, path string) (*journal, []Batch, error) {
	var records []Batch
	// The records' events live in chunks with room for the next record's, so
	// decoding never grows (and copies) one.
	var events []EventPair
	var size int
	f, err := durable.OpenLog(fs, path, func(data []byte) (good int) {
		for good < len(data) {
			line, n := durable.NextLine(data[good:])
			payload, ok := durable.ParseLine(line)
			if !ok {
				break // torn or corrupt: the journal ends here
			}
			if most := maxEvents(len(payload)); cap(events)-len(events) < most {
				events = make([]EventPair, 0, max(most, min(eventChunk, maxEvents(len(data)-good))))
			}
			last := len(records)
			records = append(records, Batch{}) // decoded in place
			var err error
			events, err = decodeBatch(payload, &records[last], events)
			if err != nil || (last > 0 && records[last].Seq != records[last-1].Seq+1) {
				// Undecodable, or a broken chain: everything from here on is
				// untrustworthy.
				records = records[:last]
				break
			}
			good += n
		}
		size = good
		return good
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	return &journal{fs: fs, path: path, f: f, size: int64(size)}, records, nil
}

// append records b with one write(2): once it returns, b survives the
// daemon's death (SIGKILL-safe — the bytes are the kernel's) but not the
// machine's, since nothing on the serve path fsyncs. On error the batch must
// be rejected — an unjournaled batch would not survive a crash, so
// acknowledging it would break the exactly-once contract.
func (j *journal) append(b *Batch) error {
	if j.broken != nil {
		return j.broken
	}
	j.payload = appendBatch(j.payload[:0], b)
	j.buf = durable.AppendLine(j.buf[:0], j.payload)
	n, err := j.f.Write(j.buf)
	if err == nil && n < len(j.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if terr := j.fs.Truncate(j.path, j.size); terr != nil {
			j.broken = fmt.Errorf("serve: journal refuses appends: cutting a failed append back to %d bytes: %w", j.size, terr)
		}
		return fmt.Errorf("serve: append journal record: %w", err)
	}
	j.size += int64(n)
	return nil
}

func (j *journal) Close() error { return j.f.Close() }

// journalPath names the daemon's journal inside its state directory.
func journalPath(dir string) string { return filepath.Join(dir, "journal.wal") }
