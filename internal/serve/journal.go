package serve

import (
	"encoding/json"
	"fmt"
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
type journal struct {
	f   durable.File
	buf []byte // the record line being framed, reused across appends
}

// openJournal opens (creating if absent) the journal at path, replays its
// intact records, and heals any torn tail. The returned records are in
// append order with contiguous sequence numbers.
func openJournal(fs durable.FS, path string) (*journal, []Batch, error) {
	var records []Batch
	f, err := durable.OpenLog(fs, path, func(data []byte) (good int) {
		for good < len(data) {
			line, n := durable.NextLine(data[good:])
			payload, ok := durable.ParseLine(line)
			var b Batch
			if !ok || json.Unmarshal(payload, &b) != nil {
				break // torn, corrupt or undecodable: the journal ends here
			}
			if last := len(records) - 1; last >= 0 && b.Seq != records[last].Seq+1 {
				break // broken chain: everything after is untrustworthy
			}
			records = append(records, b)
			good += n
		}
		return good
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	return &journal{f: f}, records, nil
}

// append records b with one write(2): once it returns, b survives the
// daemon's death (SIGKILL-safe — the bytes are the kernel's) but not the
// machine's, since nothing on the serve path fsyncs. On error the batch must
// be rejected — an unjournaled batch would not survive a crash, so
// acknowledging it would break the exactly-once contract.
func (j *journal) append(b *Batch) error {
	payload, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("serve: encode journal record: %w", err)
	}
	j.buf = durable.AppendLine(j.buf[:0], payload)
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("serve: append journal record: %w", err)
	}
	return nil
}

func (j *journal) Close() error { return j.f.Close() }

// journalPath names the daemon's journal inside its state directory.
func journalPath(dir string) string { return filepath.Join(dir, "journal.wal") }
