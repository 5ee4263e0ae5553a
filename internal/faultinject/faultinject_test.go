package faultinject_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// aggressive rates: high enough that a 3-seed mini-sweep draws every fault
// class (the schedule is a pure hash, so the coverage below is
// deterministic, not probabilistic flake), low enough that retries and
// corrupt-is-a-miss keep every run completing.
func aggressive() faultinject.Config {
	return faultinject.Config{
		ReadErr:     400,
		BitFlip:     400,
		WriteErr:    400,
		ShortWrite:  400,
		RenameErr:   300,
		WorkerPanic: 500,
		SlowShard:   300,
		SlowDelay:   time.Millisecond,
	}
}

const shards = 4

var thetas = []int{1, 3, 10}

// miniSweep runs a small theta sweep (cold pass, then a restarted-process
// pass through a fresh in-memory cache over the same disk tier) and
// returns all results.
func miniSweep(t *testing.T, train, simTr *trace.Trace, disk *sim.DiskCache, hook sim.ShardFaultHook) []*sim.Result {
	t.Helper()
	var out []*sim.Result
	retry := sim.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	for pass := 0; pass < 2; pass++ {
		cache := sim.NewShardCache()
		cache.AttachDisk(disk)
		sweep, err := sim.NewSweep(train, simTr, sim.Options{
			Shards: shards, Cache: cache, FaultHook: hook, Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range thetas {
			cfg := core.DefaultConfig()
			cfg.Classify.ThetaPrewarm = theta
			res, err := sweep.Run(core.New(cfg))
			if err != nil {
				t.Fatalf("pass %d theta %d: %v", pass, theta, err)
			}
			out = append(out, res)
		}
	}
	return out
}

// The harness's reason to exist: for every seed, a run under injected
// disk faults and worker crashes that completes must be bit-identical to
// the clean run — and across the seeds, every fault class must actually
// have fired.
func TestCompletedFaultedRunsBitIdentical(t *testing.T) {
	s := experiments.SparseSettings(120, 1)
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	cleanDisk, err := sim.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clean := miniSweep(t, train, simTr, cleanDisk, nil)

	union := make(map[string]int64)
	for seed := int64(1); seed <= 3; seed++ {
		inj := faultinject.New(seed, aggressive())
		disk, err := sim.OpenDiskCacheFS(t.TempDir(), inj.FS())
		if err != nil {
			t.Fatal(err)
		}
		faulted := miniSweep(t, train, simTr, disk, inj)
		for i := range clean {
			a, b := *clean[i], *faulted[i]
			a.Overhead, b.Overhead = 0, 0
			if !reflect.DeepEqual(&a, &b) {
				t.Errorf("seed %d result %d diverged under faults (%s)", seed, i, inj)
			}
		}
		if inj.Total() == 0 {
			t.Errorf("seed %d injected nothing — the harness is not exercising the fault surface", seed)
		}
		t.Logf("seed %d: %s", seed, inj)
		for class, n := range inj.Counts() {
			union[class] += n
		}
	}
	for _, class := range []string{"readerr", "bitflip", "writeerr", "shortwrite", "renameerr", "panic", "slow"} {
		if union[class] == 0 {
			t.Errorf("fault class %q never fired across 3 seeds — raise its rate or the workload size", class)
		}
	}
}

// Same seed, same operations ⇒ same schedule: fault decisions, corrupted
// bytes, and counts must reproduce exactly across injector instances.
func TestScheduleDeterministic(t *testing.T) {
	s := experiments.SparseSettings(120, 1)
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]map[string]int64, 2)
	var results [2][]*sim.Result
	for run := 0; run < 2; run++ {
		inj := faultinject.New(99, aggressive())
		disk, err := sim.OpenDiskCacheFS(t.TempDir(), inj.FS())
		if err != nil {
			t.Fatal(err)
		}
		results[run] = miniSweep(t, train, simTr, disk, inj)
		counts[run] = inj.Counts()
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Errorf("same seed drew different schedules: %v vs %v", counts[0], counts[1])
	}
	for i := range results[0] {
		a, b := *results[0][i], *results[1][i]
		a.Overhead, b.Overhead = 0, 0
		if !reflect.DeepEqual(&a, &b) {
			t.Errorf("same seed produced different results at %d", i)
		}
	}
}

// Injected errors must classify as transient so the retry layers treat
// them as curable — including through wrapping.
func TestInjectedErrorsAreTransient(t *testing.T) {
	e := &faultinject.Error{Site: "readerr", Subject: "shard-xyz.sce", Seq: 3}
	if !sim.IsTransient(e) {
		t.Error("injected error not classified transient")
	}
	if sim.IsTransient(nil) {
		t.Error("nil classified transient")
	}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}

// Ingestion and the store's read path now run through the same seam as the
// disk cache, so the same rule is provable for them: under injected write,
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
