// Command eqvcheck is the CLI form of the engine-equivalence tests, at a
// scale the unit suite does not run on every invocation: it simulates SPES
// with the dense reference engine, the event-driven engine, the sharded
// engine, and (with -stream) the streamed engine and the disk-backed shard
// cache over seeded workloads, compares every sim.Result with Result.Diff,
// and exits non-zero on the first mismatch. Workloads come through
// experiments.Open, so the doors under comparison are the doors users get.
//
//	go run ./cmd/eqvcheck                         # 400 functions, shards 4
//	go run ./cmd/eqvcheck -functions 10000 -sparse -shards 8 -seeds 3 -stream
//
// Non-stationary workloads and online retraining, in every engine at once:
//
//	go run ./cmd/eqvcheck -functions 600 -scenario churn -retrain-every 1440 -shards 2 -stream
//
// The -stream cache passes (cold, then warm through a fresh handle) share
// one entry directory. -cache-dir persists it: a second process must be
// served from disk (-mindiskhits asserts it), and the run becomes resumable
// — SIGINT/SIGTERM drains the in-flight shards into it and exits 130.
//
// Deterministic injected faults (internal/faultinject: failing and corrupt
// disk operations, panicking and stalling shard workers); the reference runs
// clean and every faulted pass must still match it bit for bit:
//
//	go run ./cmd/eqvcheck -functions 400 -shards 4 -stream -faults 7
//
// The capacity-coupled baselines: FaaSCache and LCS unsharded against
// Options.Shards {2, 5, 16} — or, with -stream, against generator sources of
// {2, 5, 16} shards, whose population the run reassembles:
//
//	go run ./cmd/eqvcheck -capacity -stream -shards 4
//
// The memory guard: only streamed engines run (-shards against 2x -shards),
// no trace is ever materialized, and -maxheap bounds the sampled peak. CI
// runs 100k sparse functions this way under GOMEMLIMIT:
//
//	go run ./cmd/eqvcheck -streamonly -functions 100000 -sparse -shards 16 \
//	    -seeds 1 -maxheap 268435456
//
// The real-trace doors: one Azure-format CSV materialized, sharded, ingested
// into a temporary columnar store (cold) and re-opened (warm), SPES plus a
// baseline over each, then a store-sourced cache pass whose second run must
// be all in-memory hits (the store's fingerprints key the cache):
//
//	go run ./cmd/eqvcheck -ingest testdata/azure_sample.csv -train-days 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/memwatch"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		if errors.Is(err, sim.ErrInterrupted) {
			// A drained interruption is a clean, resumable exit, reported
			// with the conventional 130.
			fmt.Fprintln(os.Stderr, "eqvcheck: interrupted; completed shards are in the -cache-dir — rerun with the same flags to resume")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "eqvcheck:", err)
		os.Exit(1)
	}
}

// drainOnSignal returns a channel closed at the first SIGINT or SIGTERM, for
// sim.Options.Stop: the sharded engines start no new shard, drain the ones in
// flight (their outcomes reach the cache) and return sim.ErrInterrupted. A
// second signal kills the old-fashioned way.
func drainOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "eqvcheck: signal received; draining in-flight shards...")
		close(stop)
		signal.Stop(sigc)
	}()
	return stop
}

func run() error {
	s := experiments.DefaultSettings()
	s.Functions, s.Days, s.TrainDays = 400, 8, 6 // the seed is set per -seeds pass
	s.RegisterFlags(flag.CommandLine, "functions", "days", "train-days", "scenario", "sparse")
	shards := flag.Int("shards", 4, "shard count for the sharded engine (0 disables the sharded check)")
	seeds := flag.Int("seeds", 3, "number of seeds to check")
	stream := flag.Bool("stream", false, "additionally check the streamed engine (sim.RunStreamed over a generator source) and the disk-backed shard cache against the dense reference")
	streamOnly := flag.Bool("streamonly", false, "check only streamed engines (-shards vs 2x -shards) without ever materializing a trace; peak residency stays O(functions/shards)")
	maxHeap := flag.Uint64("maxheap", 0, "exit non-zero if sampled peak HeapInuse exceeds this many bytes (0: unbounded)")
	workers := flag.Int("workers", 0, "concurrent shard-run cap (0: one per core); streamed residency is up to TWO shards (pipelined prefetch) of O(functions/shards) event series PER in-flight worker, so -maxheap bounds need a fixed worker count, not the runner's core count")
	cacheDir := flag.String("cache-dir", "", "disk-cache entry directory for the -stream cache checks (persists across runs, and makes the run resumable: SIGINT/SIGTERM drains in-flight shards into it and exits 130; empty: a temporary directory, removed on exit)")
	minDiskHits := flag.Int("mindiskhits", 0, "fail unless the cold passes were served at least this many shard entries from the disk cache — asserts that a previous process's -cache-dir entries survived the restart (0: no assertion)")
	retrain := flag.Int("retrain-every", 0, "enable SPES online re-categorization every this many slots in every engine under comparison (0: off)")
	faultSeed := flag.Int64("faults", 0, "non-zero: run the -stream checks under deterministic injected faults with this schedule seed; completed runs must stay bit-identical to the clean dense reference")
	capCheck := flag.Bool("capacity", false, "additionally check the capacity-coupled baselines: FaaSCache and LCS under shard counts {2, 5, 16} (over streamed sources of that many shards with -stream) must be bit-identical to their unsharded runs")
	ingestCSV := flag.String("ingest", "", "real-trace mode: check this Azure-format CSV through materialized, sharded, and columnar-store (cold + warm) paths for bit-identity; generation flags are ignored")
	flag.Parse()

	if *ingestCSV != "" {
		if *stream || *streamOnly || *capCheck || s.Scenario.Name != "" || *faultSeed != 0 || *retrain != 0 || *cacheDir != "" || *minDiskHits != 0 {
			return fmt.Errorf("-ingest is a self-contained mode; it cannot be combined with -stream, -streamonly, -capacity, -scenario, -faults, -retrain-every, -cache-dir, or -mindiskhits")
		}
		if *shards < 2 {
			return fmt.Errorf("-ingest needs -shards >= 2 (a green run must actually exercise the store partition), got %d", *shards)
		}
		return runIngestCheck(s, *ingestCSV, *shards, *workers, *maxHeap)
	}

	// Flag validation up front: every bad value or combination must come
	// back as an error with exit code 1 before any work starts, never as a
	// library panic's stack trace.
	if err := s.Validate(); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if *shards < 0 || *workers < 0 {
		return fmt.Errorf("-shards and -workers must be >= 0, got %d / %d", *shards, *workers)
	}
	if *stream && *shards <= 1 {
		return fmt.Errorf("-stream needs -shards > 1 (a green run must actually exercise the streamed engine)")
	}
	if *minDiskHits > 0 && !*stream {
		return fmt.Errorf("-mindiskhits needs -stream (the disk cache only runs there)")
	}
	if *streamOnly && *capCheck {
		// A capacity-coupled policy runs over the whole reassembled
		// population, so it cannot run under the O(n/P) residency guard.
		return fmt.Errorf("-capacity cannot be combined with -streamonly (a capacity-coupled policy keeps the whole population resident)")
	}
	if *streamOnly && (*stream || *cacheDir != "" || *minDiskHits > 0) {
		// The streamonly branch never touches the disk cache; accepting
		// these flags there would silently skip the assertions they imply.
		return fmt.Errorf("-streamonly cannot be combined with -stream, -cache-dir, or -mindiskhits")
	}

	if *retrain < 0 {
		return fmt.Errorf("-retrain-every must be >= 0, got %d", *retrain)
	}
	if *faultSeed != 0 && !*stream {
		return fmt.Errorf("-faults needs -stream (the fault surface — disk cache and shard workers — only runs there)")
	}
	if *faultSeed != 0 && *minDiskHits > 0 {
		// Injected read faults legitimately turn restores into misses, so a
		// disk-hit floor would flake by design.
		return fmt.Errorf("-faults cannot be combined with -mindiskhits")
	}

	var inj *faultinject.Injector
	var hook sim.ShardFaultHook
	if *faultSeed != 0 {
		inj = faultinject.New(*faultSeed, faultinject.Default())
		hook = inj
	}

	// s keeps its -scenario as a pending name: scenario cohorts are drawn
	// from the workload seed, so every per-seed Open below positions it anew.
	watch := memwatch.Watch()
	if *streamOnly {
		if *shards < 1 {
			return fmt.Errorf("-streamonly needs -shards >= 1")
		}
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			s.Seed = seed
			opts := sim.Options{Workers: *workers, RetrainEvery: *retrain}
			narrow, err := experiments.Open(s, experiments.Input{Stream: true, Shards: *shards})
			if err != nil {
				return err
			}
			wide, err := experiments.Open(s, experiments.Input{Stream: true, Shards: 2 * (*shards)})
			if err != nil {
				return err
			}
			a, err := narrow.Run(spes(), opts)
			if err != nil {
				return err
			}
			if err := check(fmt.Sprintf("seed %d: streamed x%d vs x%d", seed, *shards, 2*(*shards)), a, wide, spes(), opts); err != nil {
				return err
			}
			fmt.Printf("seed %d: identical (cold=%d wmt=%d mem=%d)\n",
				seed, a.TotalColdStarts, a.TotalWMT, a.TotalMemory)
		}
		return checkHeap(watch, *maxHeap)
	}

	// One entry directory is shared by every seed's cache checks; entries
	// are content-keyed, so seeds never collide. Only a run over a
	// persistent -cache-dir has anything to resume from, so only there do
	// signals drain instead of kill (a nil Stop never fires).
	dir := *cacheDir
	var stop <-chan struct{}
	if *stream {
		if dir != "" {
			stop = drainOnSignal()
		} else {
			tmp, err := os.MkdirTemp("", "eqvcheck-cache-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
	}
	openCache := func() (*sim.ShardCache, error) {
		if inj != nil {
			return sim.OpenShardCacheFS(dir, inj.FS())
		}
		return sim.OpenShardCache(dir)
	}
	var coldDiskHits int64

	for seed := int64(1); seed <= int64(*seeds); seed++ {
		s.Seed = seed
		mat, err := experiments.Open(s, experiments.Input{})
		if err != nil {
			return err
		}
		rd, err := mat.Run(core.NewDenseReference(core.DefaultConfig()), sim.Options{RetrainEvery: *retrain})
		if err != nil {
			return err
		}
		// against holds one more engine's run of SPES to the dense reference.
		// (The hook and the drain act at shard boundaries; the unsharded
		// event engine has none, so they are inert there.)
		against := func(engine string, w *experiments.Workload, opts sim.Options) error {
			opts.RetrainEvery, opts.FaultHook, opts.Stop = *retrain, hook, stop
			return check(fmt.Sprintf("seed %d: %s", seed, engine), rd, w, spes(), opts)
		}
		if err := against("event", mat, sim.Options{}); err != nil {
			return err
		}
		if *shards > 1 {
			if err := against(fmt.Sprintf("sharded x%d", *shards), mat, sim.Options{Shards: *shards}); err != nil {
				return err
			}
		}
		var str *experiments.Workload
		if *stream {
			if str, err = experiments.Open(s, experiments.Input{Stream: true, Shards: *shards}); err != nil {
				return err
			}
			if err := against(fmt.Sprintf("streamed x%d", *shards), str, sim.Options{Workers: *workers}); err != nil {
				return err
			}

			// Shard-cache check: a cold pass (misses in this process — or
			// hits, when -cache-dir carries entries from an earlier process)
			// and a warm pass through a fresh handle on the same directory,
			// as a restarted process would open it, must both match the
			// reference. Traffic is only exact on a clean run: under -faults
			// a failed read legitimately re-simulates and a failed store
			// legitimately leaves a future miss.
			for _, pass := range []string{"cold", "warm"} {
				cache, err := openCache()
				if err != nil {
					return err
				}
				if err := against(fmt.Sprintf("cached (%s) x%d", pass, *shards), mat, sim.Options{Shards: *shards, Cache: cache}); err != nil {
					return err
				}
				st := cache.Stats()
				if pass == "cold" {
					coldDiskHits += st.Hits
				}
				if inj == nil && (st.Hits+st.Misses != int64(*shards) || (pass == "warm" && st.Hits != int64(*shards))) {
					return fmt.Errorf("seed %d: %s pass stats %+v, want %d lookups (all hits when warm)", seed, pass, st, *shards)
				}
			}
		}
		if *capCheck {
			if err := checkCapacity(s, mat, *stream, *workers); err != nil {
				return err
			}
		}
		fmt.Printf("seed %d: identical (cold=%d wmt=%d mem=%d)\n",
			seed, rd.TotalColdStarts, rd.TotalWMT, rd.TotalMemory)
	}
	if *minDiskHits > 0 && coldDiskHits < int64(*minDiskHits) {
		return fmt.Errorf("cold passes restored %d entries from the disk cache, want >= %d (did the -cache-dir survive the restart?)", coldDiskHits, *minDiskHits)
	}
	if *stream {
		fmt.Printf("disk cache: %d entries restored on cold passes\n", coldDiskHits)
	}
	if inj != nil {
		fmt.Printf("faults(seed=%d): %s\n", *faultSeed, inj)
		if inj.Total() == 0 {
			// A faults run that injected nothing proved nothing — the seam
			// came unwired, or the run is far too small for the rates.
			return fmt.Errorf("-faults %d injected no faults; the harness is not exercising the fault surface", *faultSeed)
		}
	}
	return checkHeap(watch, *maxHeap)
}

// runIngestCheck is the -ingest mode: one real (or sample) CSV checked for
// bit-identity across every door that can serve it — materialized (unsharded
// and sharded), a cold columnar-store ingest, and a warm store reopen — plus
// a store-sourced shard-cache pass whose second run must be served entirely
// from the cache (the store fingerprints key it).
func runIngestCheck(s experiments.Settings, path string, shards, workers int, maxHeap uint64) error {
	watch := memwatch.Watch()
	mat, err := experiments.Open(s, experiments.Input{Trace: path})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "eqvcheck-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cold, err := experiments.Open(s, experiments.Input{Trace: path, Store: dir, Shards: shards})
	if err != nil {
		return err
	}
	stats := cold.Ingested
	fmt.Printf("ingested %s: %d functions x %d slots, %d events, %d shards, %d bytes\n",
		path, stats.Functions, stats.Slots, stats.Events, stats.Shards, stats.StoreBytes)

	var spesRef *sim.Result
	for _, m := range []struct {
		name string
		mk   func() sim.Policy
	}{
		{"SPES", spes},
		{"FixedKeepAlive", func() sim.Policy { return baselines.NewFixedKeepAlive(10) }},
	} {
		ref, err := mat.Run(m.mk(), sim.Options{})
		if err != nil {
			return err
		}
		if m.name == "SPES" {
			spesRef = ref
		}
		if err := check(fmt.Sprintf("%s: sharded x%d", m.name, shards), ref, mat, m.mk(), sim.Options{Shards: shards, Workers: workers}); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("%s: store (cold) x%d", m.name, shards), ref, cold, m.mk(), sim.Options{Workers: workers}); err != nil {
			return err
		}
		fmt.Printf("%s: materialized, sharded, and store-sourced identical (cold=%d wmt=%d mem=%d)\n",
			m.name, ref.TotalColdStarts, ref.TotalWMT, ref.TotalMemory)
	}

	// Warm door: a fresh OpenStore (manifest re-verified, shard files
	// re-read) must reproduce the same results without the CSV.
	warm, err := experiments.Open(s, experiments.Input{Store: dir})
	if err != nil {
		return err
	}
	if err := check(fmt.Sprintf("SPES: store (warm reopen) x%d", shards), spesRef, warm, spes(), sim.Options{Workers: workers}); err != nil {
		return err
	}

	// Cache pass: the store's fingerprints must key the shard cache — the
	// second run over the same source is served entirely from its entries.
	cache, err := sim.OpenShardCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	for _, label := range []string{"cold", "warm"} {
		if err := check(fmt.Sprintf("SPES: store cached (%s) x%d", label, shards), spesRef, warm, spes(), sim.Options{Workers: workers, Cache: cache}); err != nil {
			return err
		}
	}
	if cst := cache.Stats(); cst.Hits != int64(shards) || cst.Misses != int64(shards) {
		return fmt.Errorf("store cache stats %+v, want exactly %d misses then %d hits (are store fingerprints keying the cache?)", cst, shards, shards)
	}
	fmt.Printf("store: warm reopen and fingerprint-keyed cache identical\n")
	return checkHeap(watch, maxHeap)
}

// checkCapacity runs the -capacity pass for one seed: FaaSCache and LCS —
// the capacity-coupled baselines, which run one instance over the whole
// population however the workload is sharded — simulated unsharded and at
// shard counts {2, 5, 16}: Options.Shards over the materialized pair, or
// with -stream a generator source of that many shards, which the run
// reassembles. Every run is compared bit-for-bit against the unsharded
// reference. The pool capacity is a third of the population: small enough
// that evictions happen constantly, large enough that loaded functions also
// idle (so WMT and EMCR are non-degenerate).
func checkCapacity(s experiments.Settings, mat *experiments.Workload, stream bool, workers int) error {
	seed, pool := s.Seed, max(s.Functions/3, 1)
	for _, m := range []struct {
		name string
		mk   func() sim.Policy
	}{
		{"FaaSCache", func() sim.Policy { return baselines.NewFaaSCache(pool) }},
		{"LCS", func() sim.Policy { return baselines.NewLCS(pool) }},
	} {
		ref, err := mat.Run(m.mk(), sim.Options{})
		if err != nil {
			return err
		}
		if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
			return fmt.Errorf("seed %d: %s capacity reference is degenerate (cold=%d wmt=%d); the -capacity pass would prove nothing",
				seed, m.name, ref.TotalColdStarts, ref.TotalWMT)
		}
		for _, p := range []int{2, 5, 16} {
			w, door := mat, "sharded"
			if stream {
				// The source's shard count replaces Options.Shards.
				if w, err = experiments.Open(s, experiments.Input{Stream: true, Shards: p}); err != nil {
					return err
				}
				door = "streamed"
			}
			if err := check(fmt.Sprintf("seed %d: %s capacity %s x%d", seed, m.name, door, p), ref, w, m.mk(), sim.Options{Shards: p, Workers: workers}); err != nil {
				return err
			}
		}
		fmt.Printf("seed %d: %s capacity (pool=%d) identical across shard counts (cold=%d wmt=%d mem=%d)\n",
			seed, m.name, pool, ref.TotalColdStarts, ref.TotalWMT, ref.TotalMemory)
	}
	return nil
}

// spes is the policy under test, fresh per run.
func spes() sim.Policy { return core.New(core.DefaultConfig()) }

// checkHeap enforces -maxheap over the sampled run.
func checkHeap(watch *memwatch.Watcher, maxHeap uint64) error {
	peak, after := watch.Finish()
	fmt.Printf("heap: peak=%d after-gc=%d bytes\n", peak, after)
	if maxHeap > 0 && peak > maxHeap {
		return fmt.Errorf("peak heap %d exceeds -maxheap %d (O(n/P) residency regressed?)", peak, maxHeap)
	}
	return nil
}

// check runs p over w and holds the result to ref with sim.Result.Diff —
// the one comparison, Overhead excluded — printing the field-level diff and
// returning an error when they differ.
func check(label string, ref *sim.Result, w *experiments.Workload, p sim.Policy, opts sim.Options) error {
	got, err := w.Run(p, opts)
	if err != nil {
		return err
	}
	d := ref.Diff(got)
	if d == "" {
		return nil
	}
	fmt.Printf("%s: MISMATCH\n%s", label, d)
	return fmt.Errorf("%s: results diverged", label)
}
