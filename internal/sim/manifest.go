package sim

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/durable"
)

// SweepManifest is the checkpoint/resume journal of a sweep: one
// append-only text file (conventionally beside — inside — the DiskCache
// directory) recording every completed simulation unit, where a unit is
// one (policy + config hash, shard fingerprint, slot count) shard outcome,
// i.e. exactly a shard-cache key. Attach one to a ShardCache
// (AttachManifest) and every fresh store and disk restore is journaled;
// reopen the same path after a crash or kill and the manifest reports how
// many units the previous process completed, while the DiskCache holds
// their payloads — so a rerun with the same flags re-simulates only the
// un-journaled units (the disk tier serves the journaled ones) and the
// caller can report resume progress.
//
// Durability model: records are appended with a single unbuffered write
// each, so a SIGKILL loses nothing already recorded (the bytes are in the
// kernel); Flush fsyncs for machine-crash durability at drain points. The
// journal is append-only and tolerant by construction: every record is a
// checksummed durable record line, and loading skips malformed or corrupt
// lines and carries on (a torn trailing line — a killed process may leave
// half of one — is cut off so the next append is line-aligned) — a dropped
// line only costs one unit's re-simulation, and the unit is re-journaled
// when it completes again. Lost-record direction is always safe; a record is
// only appended after the unit's outcome was stored, so the manifest can
// under-promise but never over-promise. The payload truth still lives in
// the checksummed DiskCache entries: a journaled unit whose entry is
// missing or damaged simply re-simulates through the normal miss path.
type SweepManifest struct {
	mu        sync.Mutex
	path      string
	f         durable.File
	done      map[shardKey]struct{}
	recovered int
	dropped   int
	writeErr  error
}

// manifestMagic tags journal records; bump the version digit on any format
// change (old lines then drop as malformed and their units re-simulate —
// the same forward-only migration the disk entries use).
const manifestMagic = "u2"

// OpenSweepManifest opens (creating if needed) the journal at path and
// replays its valid records. The file is opened for append; many sweeps in
// one process may share the manifest, but like the DiskCache directory it
// is one writer handle per process-open.
func OpenSweepManifest(path string) (*SweepManifest, error) {
	if path == "" {
		return nil, fmt.Errorf("sim: sweep manifest needs a path")
	}
	m := &SweepManifest{path: path, done: make(map[shardKey]struct{})}
	f, err := durable.OpenLog(durable.OS{}, path, func(data []byte) (keep int) {
		for keep < len(data) {
			line, n := durable.NextLine(data[keep:])
			if key, ok := parseManifestLine(string(line)); !ok {
				m.dropped++
			} else if _, dup := m.done[key]; !dup {
				m.done[key] = struct{}{}
				m.recovered++
			}
			if line == nil {
				break // torn tail: dropped above, cut off here
			}
			keep += n
		}
		return keep
	})
	if err != nil {
		return nil, fmt.Errorf("sim: sweep manifest: %w", err)
	}
	m.f = f
	return m, nil
}

// Path returns the journal's file path.
func (m *SweepManifest) Path() string { return m.path }

// Units returns the number of distinct completed units known — replayed at
// open plus recorded since.
func (m *SweepManifest) Units() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// Recovered returns how many distinct units the open replayed from a
// previous process's journal — the resume headroom.
func (m *SweepManifest) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

// Dropped returns how many malformed or torn journal lines the open
// ignored.
func (m *SweepManifest) Dropped() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// record journals one completed unit (idempotent; appends only the first
// time). Journal writes are best-effort by the same argument as the disk
// tier: a failed append costs a future re-simulation, never correctness —
// the first error is kept and surfaced by Flush/Close.
func (m *SweepManifest) record(key shardKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.done[key]; dup {
		return
	}
	m.done[key] = struct{}{}
	if _, err := m.f.Write([]byte(formatManifestLine(key))); err != nil && m.writeErr == nil {
		m.writeErr = err
	}
}

// has reports whether key is journaled as complete.
func (m *SweepManifest) has(key shardKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.done[key]
	return ok
}

// Flush fsyncs the journal (drain points: signal handlers, sweep ends) and
// reports the first append error, if any.
func (m *SweepManifest) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.f.Sync(); err != nil && m.writeErr == nil {
		m.writeErr = err
	}
	return m.writeErr
}

// Close flushes and closes the journal.
func (m *SweepManifest) Close() error {
	err := m.Flush()
	m.mu.Lock()
	defer m.mu.Unlock()
	if cerr := m.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// formatManifestLine serializes one record as a durable record line whose
// payload is
//
//	u2 <policy quoted> <config hex16> <trace hex16> <slots>
func formatManifestLine(key shardKey) string {
	return string(durable.AppendLine(nil, fmt.Appendf(nil, "%s %s %016x %016x %d",
		manifestMagic, strconv.Quote(key.policy), key.config, key.trace, key.slots)))
}

// parseManifestLine validates and decodes one journal line; ok=false means
// the line is malformed or torn and must be ignored.
func parseManifestLine(line string) (key shardKey, ok bool) {
	payload, ok := durable.ParseLine([]byte(line))
	if !ok {
		return key, false
	}
	rest, found := strings.CutPrefix(string(payload), manifestMagic+" ")
	if !found {
		return key, false
	}
	quoted, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return key, false
	}
	policy, err := strconv.Unquote(quoted)
	if err != nil {
		return key, false
	}
	fields := strings.Fields(rest[len(quoted):])
	if len(fields) != 3 {
		return key, false
	}
	config, err1 := strconv.ParseUint(fields[0], 16, 64)
	tr, err2 := strconv.ParseUint(fields[1], 16, 64)
	slots, err3 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return key, false
	}
	return shardKey{policy: policy, config: config, trace: tr, slots: slots}, true
}
