package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/durable"
)

// Snapshot discipline (the same durable.Commit every persistent file goes
// through): encode to a buffer, commit it under its final name, and checksum
// the whole entry so a reader can only ever see a bit-exact snapshot or
// reject it. Snapshots are an OPTIMIZATION over the journal — they move the
// replay start forward — so any damage (torn write, bit rot, version skew)
// downgrades to an older generation or to a full journal replay, never to an
// error the daemon cannot start from.
//
// File format (the durable envelope), little-endian:
//
//	"SPESRVS1" | seq u64 | nextSlot u64 | stateLen u64 | state | crc32c u32
//
// where state is core.SPES.EncodeState (itself magic- and config-hash
// guarded) and the CRC covers everything before it.
const (
	servSnapMagic  = "SPESRVS1"
	snapTmpPattern = ".tmp-snap-*"
	snapKeep       = 2 // newest generations retained; older ones are pruned
)

// snapshotter writes and restores the daemon's state snapshots in dir.
type snapshotter struct {
	dir string
	fs  durable.FS
}

func snapName(seq uint64) string { return fmt.Sprintf("state-%020d.snap", seq) }

// list returns the snapshot filenames present, newest (highest seq) first.
func (sn *snapshotter) list() []string {
	entries, err := os.ReadDir(sn.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "state-") && strings.HasSuffix(n, ".snap") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded seq: lexicographic = numeric
	return names
}

// save persists state (the policy encoding) covering the stream position
// (seq, nextSlot), then prunes generations beyond snapKeep. A disk that
// persists only a prefix while the rename still lands is caught by the
// checksum at load.
func (sn *snapshotter) save(seq uint64, nextSlot int, state []byte) error {
	e := durable.NewEnc(servSnapMagic, 24+len(state)+4)
	e.U64(seq)
	e.U64(uint64(nextSlot))
	e.U64(uint64(len(state)))
	e.B = append(e.B, state...)
	if err := durable.Commit(sn.fs, sn.dir, snapName(seq), snapTmpPattern, e.Seal()); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	for i, name := range sn.list() {
		if i >= snapKeep {
			sn.fs.Remove(filepath.Join(sn.dir, name))
		}
	}
	return nil
}

// load returns the newest restorable snapshot whose seq is covered by the
// journal (seq <= maxSeq: a snapshot AHEAD of the journal cannot be
// reconciled with the recorded history and is skipped like a corrupt one).
// rejected counts the generations that failed validation; ok=false means no
// usable snapshot exists and the caller replays the full journal.
func (sn *snapshotter) load(maxSeq uint64) (seq uint64, nextSlot int, state []byte, rejected int, ok bool) {
	for _, name := range sn.list() {
		s, slot, st, err := sn.read(filepath.Join(sn.dir, name))
		if err != nil || s > maxSeq {
			rejected++
			continue
		}
		return s, slot, st, rejected, true
	}
	return 0, 0, nil, rejected, false
}

// read validates one snapshot file end to end.
func (sn *snapshotter) read(path string) (seq uint64, nextSlot int, state []byte, err error) {
	data, err := sn.fs.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	body, err := durable.Unseal(data, servSnapMagic)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("serve: snapshot %s: %w", filepath.Base(path), err)
	}
	d := durable.NewDec(body)
	seq = d.U64()
	nextSlot = int(d.U64())
	state = d.Take(d.Count(int64(d.U64()), 1))
	if err := d.Done(); err != nil {
		return 0, 0, nil, fmt.Errorf("serve: snapshot %s: %w", filepath.Base(path), err)
	}
	return seq, nextSlot, state, nil
}
