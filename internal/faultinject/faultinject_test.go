package faultinject_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/trace"
)

// shards is the ingest drill's store width.
const shards = 4

// Ingestion and the store's read path run through the durable.FS seam, so
// the rule is provable for them: under injected write,
// rename, read and bit-flip faults an ingest fails outright or leaves a
// store whose every read is the exact shard or ErrStoreCorrupt — never a
// wrong shard.
func TestIngestUnderFaultsNeverYieldsWrongShard(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultGeneratorConfig(60, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	opts := trace.IngestOptions{Shards: shards}
	clean, _, err := trace.IngestCSV(bytes.NewReader(csv.Bytes()), t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*trace.ShardView, shards)
	for i := range want {
		if want[i], err = clean.ShardTrace(i); err != nil {
			t.Fatal(err)
		}
	}

	var ingested, exact, corrupt int
	union := make(map[string]int64)
	for seed := int64(1); seed <= 12; seed++ {
		inj := faultinject.New(seed, faultinject.Config{ReadErr: 150, BitFlip: 300, WriteErr: 120, ShortWrite: 150, RenameErr: 120})
		dir := t.TempDir()
		_, _, err := trace.IngestCSVFS(bytes.NewReader(csv.Bytes()), dir, opts, inj.FS())
		if err != nil {
			var injected *faultinject.Error
			if !errors.As(err, &injected) {
				t.Fatalf("seed %d: ingest failed with a non-injected error: %v", seed, err)
			}
			// The manifest is the commit point: a failed ingest must leave
			// a directory that refuses to open, not a partial store.
			if _, err := trace.OpenStore(dir); !errors.Is(err, trace.ErrStoreCorrupt) {
				t.Fatalf("seed %d: failed ingest left an openable store (err %v)", seed, err)
			}
		} else {
			ingested++
			for attempt := 0; attempt < 4; attempt++ {
				st, err := trace.OpenStoreFS(dir, inj.FS())
				if err != nil {
					if !errors.Is(err, trace.ErrStoreCorrupt) {
						t.Fatalf("seed %d: OpenStore error %v does not wrap ErrStoreCorrupt", seed, err)
					}
					corrupt++
					continue
				}
				for i := range want {
					got, err := st.ShardTrace(i)
					switch {
					case err != nil && (got != nil || !errors.Is(err, trace.ErrStoreCorrupt)):
						t.Fatalf("seed %d shard %d: error %v (content returned: %v) is not a clean ErrStoreCorrupt", seed, i, err, got != nil)
					case err != nil:
						corrupt++
					case !reflect.DeepEqual(got.Global, want[i].Global) || !reflect.DeepEqual(got.Functions, want[i].Functions) ||
						!reflect.DeepEqual(got.Series, want[i].Series) || got.Slots != want[i].Slots:
						t.Fatalf("seed %d shard %d: a read under faults (%s) returned a WRONG shard", seed, i, inj)
					default:
						exact++
					}
				}
			}
		}
		for class, n := range inj.Counts() {
			union[class] += n
		}
	}
	if ingested == 0 || exact == 0 || corrupt == 0 {
		t.Errorf("vacuous: %d ingests completed, %d exact shard reads, %d corrupt rejections — every outcome must occur", ingested, exact, corrupt)
	}
	for _, class := range []string{"readerr", "bitflip", "writeerr", "shortwrite", "renameerr"} {
		if union[class] == 0 {
			t.Errorf("fault class %q never fired across the seeds", class)
		}
	}
}

// The serve WAL now opens and appends through the seam too. A final append
// torn by a lying disk (full length reported, half persisted) — the batch
// was even acknowledged — must heal at the next start back to the last good
// record: the daemon comes up on exactly the state before the torn batch and
// the journal is cut to that record.
func TestJournalHealsTornFinalWrite(t *testing.T) {
	s := experiments.Settings{Functions: 24, Days: 3, TrainDays: 2, Seed: 1, SPES: core.DefaultConfig()}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := serve.Config{Dir: dir, Policy: core.DefaultConfig(), Training: train, SnapshotEvery: 64}
	start := func(cfg serve.Config, c *serve.Client) *serve.Server {
		t.Helper()
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		c.Base = hs.URL
		return srv
	}

	c := &serve.Client{}
	srv := start(cfg, c)
	if _, err := serve.Replay(c, simTr, serve.LoadOptions{BatchSlots: 8, End: 100}); err != nil {
		t.Fatal(err)
	}
	wantHash, wantSlot, wantSeq, err := srv.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}

	// Same directory, every write now torn: one more batch is applied and
	// acknowledged, but only half its record reaches the journal (and the
	// snapshot Close takes is torn as well).
	inj := faultinject.New(3, faultinject.Config{ShortWrite: 1000})
	torn := cfg
	torn.FS = inj.FS()
	srv = start(torn, c)
	replies, err := c.Send([]serve.Batch{{Slot: wantSlot, Events: []serve.EventPair{{0, 1}}}})
	if err != nil || len(replies) != 1 || !replies[0].Applied {
		t.Fatalf("batch over the lying disk: replies %+v, err %v", replies, err)
	}
	srv.Close()
	if inj.Counts()["shortwrite"] == 0 {
		t.Fatal("no write was torn; the test is vacuous")
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "journal.wal")); len(data) <= len(intact) || data[len(data)-1] == '\n' {
		t.Fatalf("journal is %d bytes after the torn append (was %d): no torn tail to heal", len(data), len(intact))
	}

	srv = start(cfg, c)
	defer srv.Close()
	hash, slot, seq, err := srv.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if hash != wantHash || slot != wantSlot || seq != wantSeq {
		t.Fatalf("after the heal: hash %016x slot %d seq %d, want %016x %d %d", hash, slot, seq, wantHash, wantSlot, wantSeq)
	}
	if healed, _ := os.ReadFile(filepath.Join(dir, "journal.wal")); !bytes.Equal(healed, intact) {
		t.Fatalf("journal not cut back to the last good record: %d bytes, want %d", len(healed), len(intact))
	}
}

// A torn snapshot tears a file written through CreateTemp (every
// durable.Commit) while the rename still lands, and never an append file.
func TestTornSnapshotTearsOnlyTempFiles(t *testing.T) {
	inj := faultinject.New(1, faultinject.Config{TornSnapshot: 1000})
	fs, dir := inj.FS(), t.TempDir()
	buf := []byte("a sealed snapshot, say")
	if err := durable.Commit(fs, dir, "state.snap", ".tmp-*", buf); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "state.snap")); !bytes.Equal(got, buf[:len(buf)/2]) {
		t.Errorf("committed %q, want the torn half %q", got, buf[:len(buf)/2])
	}
	f, err := fs.OpenAppend(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, _ := os.ReadFile(filepath.Join(dir, "journal.wal")); !bytes.Equal(got, buf) {
		t.Errorf("appended %q, want it whole", got)
	}
	if got := inj.Counts(); got["tornsnap"] != 1 || len(got) != 1 {
		t.Errorf("counts %v, want the one torn commit", got)
	}
}
