package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/trace"
)

// flakyFS wraps the real filesystem, failing the next failReads ReadFile
// calls and the next failCreates CreateTemp calls, and counting traffic so
// tests can assert a tripped tier stops issuing syscalls.
type flakyFS struct {
	durable.OS
	mu          sync.Mutex
	failReads   int
	failCreates int
	reads       int
	creates     int
}

func (f *flakyFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	f.reads++
	fail := f.failReads > 0
	if fail {
		f.failReads--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected read failure")
	}
	return f.OS.ReadFile(name)
}

func (f *flakyFS) CreateTemp(dir, pattern string) (durable.File, error) {
	f.mu.Lock()
	f.creates++
	fail := f.failCreates > 0
	if fail {
		f.failCreates--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected create failure")
	}
	return f.OS.CreateTemp(dir, pattern)
}

func (f *flakyFS) counts() (reads, creates int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.creates
}

// save must survive transiently failing writes within its attempt budget
// and give up past it.
func TestDiskSaveRetriesTransientWriteFailures(t *testing.T) {
	fs := &flakyFS{failCreates: diskSaveAttempts - 1}
	d, err := OpenDiskCacheFS(t.TempDir(), fs)
	if err != nil {
		t.Fatal(err)
	}
	key, ent := testEntry(true)
	if err := d.save(key, ent); err != nil {
		t.Fatalf("save with %d transient failures (budget %d): %v", diskSaveAttempts-1, diskSaveAttempts, err)
	}
	got, err := d.load(key)
	if err != nil || got == nil {
		t.Fatalf("load after retried save: ent=%v err=%v", got, err)
	}
	sameEntry(t, ent, got)

	fs.mu.Lock()
	fs.failCreates = diskSaveAttempts
	fs.mu.Unlock()
	key2 := key
	key2.config++
	if err := d.save(key2, ent); err == nil {
		t.Errorf("save with %d failures exceeded its %d-attempt budget but reported success", diskSaveAttempts, diskSaveAttempts)
	}
}

// Repeated hard I/O failures must trip the disk tier off — once — while
// the in-memory tier keeps working; a success along the way resets the
// count, and re-attaching re-arms the tier.
func TestDiskTripwireDisablesTier(t *testing.T) {
	fs := &flakyFS{}
	d, err := OpenDiskCacheFS(t.TempDir(), fs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewShardCache()
	c.AttachDisk(d)
	key, _ := testEntry(false)
	miss := func(i int) shardKey {
		k := key
		k.config = uint64(i)
		return k
	}

	// One short of the tripwire, then a clean miss (file-not-found is a
	// healthy disk saying no): the streak must reset.
	fs.mu.Lock()
	fs.failReads = DiskFailureTripwire - 1
	fs.mu.Unlock()
	for i := 0; i < DiskFailureTripwire; i++ {
		c.lookup(miss(i))
	}
	if st := c.Stats(); st.DiskDisabled {
		t.Fatalf("tier disabled after %d failures and a success: %+v", DiskFailureTripwire-1, st)
	}

	// A full consecutive streak must trip it.
	fs.mu.Lock()
	fs.failReads = DiskFailureTripwire
	fs.mu.Unlock()
	for i := 0; i < DiskFailureTripwire; i++ {
		c.lookup(miss(100 + i))
	}
	st := c.Stats()
	if !st.DiskDisabled {
		t.Fatalf("tier not disabled after %d consecutive failures: %+v", DiskFailureTripwire, st)
	}
	if st.DiskErrors != int64(2*DiskFailureTripwire-1) {
		t.Errorf("DiskErrors = %d, want %d", st.DiskErrors, 2*DiskFailureTripwire-1)
	}

	// A tripped tier must stop issuing syscalls entirely, for lookups and
	// stores alike, and the cache must keep serving from memory.
	reads, creates := fs.counts()
	_, ent := testEntry(false)
	c.store(miss(999), ent)
	if got := c.lookup(miss(999)); got == nil {
		t.Error("in-memory tier stopped serving after the disk tier tripped")
	}
	for i := 0; i < 5; i++ {
		c.lookup(miss(200 + i))
	}
	if r2, c2 := fs.counts(); r2 != reads || c2 != creates {
		t.Errorf("tripped tier still issued syscalls: reads %d -> %d, creates %d -> %d", reads, r2, creates, c2)
	}

	// Re-attaching re-arms.
	c.AttachDisk(d)
	if st := c.Stats(); st.DiskDisabled {
		t.Error("AttachDisk did not re-arm the tripwire")
	}
}

// plantTemps drops a stale temp file, a fresh one and an unrelated file
// into dir; swept asserts what one durable.Sweep from an opener must have
// done with them: reclaim the stale one (a dead writer's), leave the fresh
// one (possibly a live writer's) and the bystander alone.
func plantTemps(t *testing.T, dir, prefix string) (swept func()) {
	t.Helper()
	stale := filepath.Join(dir, prefix+"dead123")
	fresh := filepath.Join(dir, prefix+"live456")
	bystander := filepath.Join(dir, "unrelated.txt")
	for _, p := range []string{stale, fresh, bystander} {
		if err := os.WriteFile(p, []byte("partial entry bytes"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * durable.OrphanAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("stale temp file not swept (stat err: %v)", err)
		}
		if _, err := os.Stat(fresh); err != nil {
			t.Errorf("fresh temp file swept: %v", err)
		}
		if _, err := os.Stat(bystander); err != nil {
			t.Errorf("non-temp file swept: %v", err)
		}
	}
}

// OpenDiskCache must reclaim stale temp files from dead writers, leave
// fresh ones (possibly a live writer's) and final entries alone, and never
// serve a temp file. The trace store's two ways in — OpenStore and a
// re-ingest — owe their directory the same sweep (the serving daemon's
// state directory is covered in internal/serve, which this package cannot
// import).
func TestOpenDiskCacheSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, ent := testEntry(true)
	if err := d.save(key, ent); err != nil {
		t.Fatal(err)
	}

	swept := plantTemps(t, dir, ".tmp-shard-")
	d2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	swept()
	got, err := d2.load(key)
	if err != nil || got == nil {
		t.Fatalf("final entry lost to the orphan sweep: ent=%v err=%v", got, err)
	}
	sameEntry(t, ent, got)
	// Temp files are never served: a key with no final entry is a miss no
	// matter how many temp files sit in the directory.
	other := key
	other.config++
	if ent, err := d2.load(other); ent != nil || err != nil {
		t.Errorf("missing key served from somewhere (ent=%v err=%v) with temp files present", ent, err)
	}

	tr, err := trace.Generate(trace.DefaultGeneratorConfig(20, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	for _, enter := range []func() error{
		func() error {
			_, _, err := trace.IngestCSV(bytes.NewReader(csv.Bytes()), storeDir, trace.IngestOptions{Shards: 2})
			return err
		},
		func() error { _, err := trace.OpenStore(storeDir); return err },
	} {
		swept := plantTemps(t, storeDir, ".tmp-store-")
		if err := enter(); err != nil {
			t.Fatal(err)
		}
		swept()
	}
	store, err := trace.OpenStore(storeDir)
	if err != nil {
		t.Fatalf("store lost to the orphan sweep: %v", err)
	}
	for i := 0; i < store.NumShards(); i++ {
		if _, err := store.ShardTrace(i); err != nil {
			t.Fatalf("shard %d lost to the orphan sweep: %v", i, err)
		}
	}
}

// hammerEntry builds the i-th distinct (key, entry) pair with a marker so
// concurrent lookups can verify they got the right payload.
func hammerEntry(i int) (shardKey, *shardEntry) {
	key, ent := testEntry(i%2 == 0)
	key.config = uint64(i)
	ent.res.TotalColdStarts = int64(1000 + i)
	return key, ent
}

// Concurrent Store/Get/eviction traffic on a tiny budget with a disk tier
// attached: the -race-instrumented CI job runs this to catch data races;
// the marker check catches cross-key payload mixups.
func TestShardCacheConcurrentHammer(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewShardCache()
	c.SetBudget(2, 0) // constant eviction pressure
	c.AttachDisk(d)

	const nkeys, workers, iters = 16, 8, 150
	keys := make([]shardKey, nkeys)
	ents := make([]*shardEntry, nkeys)
	for i := range keys {
		keys[i], ents[i] = hammerEntry(i)
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (w*31 + it*7) % nkeys
				if ent := c.lookup(keys[i]); ent != nil {
					if got := ent.res.TotalColdStarts; got != int64(1000+i) {
						errc <- fmt.Errorf("key %d served marker %d, want %d", i, got, 1000+i)
						return
					}
				} else {
					c.store(keys[i], ents[i])
				}
				if it%40 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Errorf("hammer produced no evictions (budget not exercised): %+v", st)
	}
}

// Concurrent save and load of the same key: load must see nothing or a
// complete, verified entry — never a torn one (the atomic-rename
// guarantee), and never a racing writer's temp state.
func TestDiskCacheRestoreDuringStoreRace(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, want := testEntry(true)

	const writers, saves, readers = 3, 40, 4
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				if err := d.save(key, want); err != nil {
					errc <- fmt.Errorf("save: %w", err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				ent, err := d.load(key)
				if err != nil {
					errc <- fmt.Errorf("load: %w", err)
					return
				}
				if ent != nil && ent.res.TotalColdStarts != want.res.TotalColdStarts {
					errc <- fmt.Errorf("load observed a torn entry: %+v", ent.res)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	rg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	ent, err := d.load(key)
	if err != nil || ent == nil {
		t.Fatalf("final load: ent=%v err=%v", ent, err)
	}
	sameEntry(t, want, ent)
}
