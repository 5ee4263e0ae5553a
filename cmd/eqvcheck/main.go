// Command eqvcheck is the CLI form of the engine-equivalence tests, at a
// scale the unit suite does not run on every invocation: it simulates SPES
// with the dense reference engine, the event-driven engine, the sharded
// engine, and (with -stream) the streamed engine over seeded workloads and
// exits non-zero on the first sim.Result mismatch.
//
//	go run ./cmd/eqvcheck                         # 400 functions, shards 4
//	go run ./cmd/eqvcheck -functions 10000 -sparse -shards 8 -seeds 3 -stream
//
// -scenario runs every check over a non-stationary library workload
// (drift, flash crowds, churn, deploy waves), and -retrain-every additionally
// enables SPES's online re-categorization in all engines — together they
// assert that neither time-varying workloads nor mid-simulation
// retraining opens any daylight between the engines:
//
//	go run ./cmd/eqvcheck -functions 600 -scenario churn -retrain-every 1440 -shards 2 -stream
//
// -stream also exercises the shard cache with a disk tier: a cold, a warm,
// and a warm-after-restart (fresh in-memory cache over the same entry
// directory) pass must all match the dense reference. -cache-dir persists
// the entry directory across invocations — CI runs eqvcheck twice against
// one directory and asserts with -mindiskhits that the second process was
// served from disk; without -cache-dir a temporary directory is used and
// removed. A -cache-dir run is also resumable: SIGINT/SIGTERM closes
// sim.Options.Stop, the in-flight shards drain into the directory, and the
// process exits 130; the same command again is served what was completed.
//
// -faults <seed> runs the -stream checks under deterministic injected
// faults (internal/faultinject): disk reads/writes/renames fail or corrupt
// on a seeded schedule, shard workers panic on first attempts and stall.
// The dense reference runs clean; every faulted engine and cache pass must
// still match it bit-for-bit — the completes ⇒ bit-identical invariant.
// Exact cache-tier traffic assertions are relaxed (a failed restore
// legitimately re-simulates), result equality never is:
//
//	go run ./cmd/eqvcheck -functions 400 -shards 4 -stream -faults 7
//
// -capacity additionally checks the capacity-arbitrated sharded engine:
// FaaSCache and LCS (whose global memory budget couples every function to
// every other) run unsharded and under shard counts {2, 5, 16} — plus the
// streamed engine at -shards when -stream is set — and every sharded run
// must be bit-identical to the unsharded reference:
//
//	go run ./cmd/eqvcheck -capacity -stream -shards 4
//
// -streamonly is the memory-guard mode: it never materializes a trace —
// only streamed engines run, at -shards and 2x -shards, compared against
// each other — so peak residency stays O(n/shards) and -maxheap can bound
// it. CI runs a 100k-function sparse population this way under GOMEMLIMIT;
// a regression that materializes O(n) state trips the bound.
//
//	go run ./cmd/eqvcheck -streamonly -functions 100000 -sparse -shards 16 \
//	    -seeds 1 -maxheap 268435456
//
// -ingest <csv> is the real-trace equivalence mode: the named Azure-format
// CSV is materialized with trace.ReadCSV AND ingested into a temporary
// columnar shard store (trace.IngestCSV), and SPES plus a baseline run over
// both — unsharded materialized, sharded materialized, cold store-sourced,
// and warm store-sourced (a fresh OpenStore, proving the re-read path) —
// with every result compared bit-for-bit. A shard-cache pass over the
// store source then asserts the store's content fingerprints actually key
// the cache (second pass: all in-memory hits). Generation flags are
// ignored; -train-days/-shards/-workers apply:
//
//	go run ./cmd/eqvcheck -ingest testdata/azure_sample.csv -train-days 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"reflect"
	"syscall"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/memwatch"
	"repro/internal/sim"
	"repro/internal/trace"
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
	functions := flag.Int("functions", 400, "population size")
	days := flag.Int("days", 8, "trace length in days")
	trainDays := flag.Int("train-days", 6, "training window in days")
	shards := flag.Int("shards", 4, "shard count for the sharded engine (0 disables the sharded check)")
	seeds := flag.Int("seeds", 3, "number of seeds to check")
	sparse := flag.Bool("sparse", false, "use the mostly-idle trigger mix (large-n regime)")
	stream := flag.Bool("stream", false, "additionally check the streamed engine (sim.RunStreamed over a generator source) and the disk-backed shard cache against the dense reference")
	streamOnly := flag.Bool("streamonly", false, "check only streamed engines (-shards vs 2x -shards) without ever materializing a trace; peak residency stays O(functions/shards)")
	maxHeap := flag.Uint64("maxheap", 0, "exit non-zero if sampled peak HeapInuse exceeds this many bytes (0: unbounded)")
	workers := flag.Int("workers", 0, "concurrent shard-run cap (0: one per core); streamed residency is up to TWO shards (pipelined prefetch) of O(functions/shards) event series PER in-flight worker, so -maxheap bounds need a fixed worker count, not the runner's core count")
	cacheDir := flag.String("cache-dir", "", "disk-cache entry directory for the -stream cache checks (persists across runs, and makes the run resumable: SIGINT/SIGTERM drains in-flight shards into it and exits 130; empty: a temporary directory, removed on exit)")
	minDiskHits := flag.Int("mindiskhits", 0, "fail unless the cold passes were served at least this many shard entries from the disk cache — asserts that a previous process's -cache-dir entries survived the restart (0: no assertion)")
	scenario := flag.String("scenario", "", "run the checks over a non-stationary library scenario (steady|drift|flashcrowd|churn|deploy-wave) positioned at the -train-days split (empty: stationary)")
	retrain := flag.Int("retrain-every", 0, "enable SPES online re-categorization every this many slots in every engine under comparison (0: off)")
	faultSeed := flag.Int64("faults", 0, "non-zero: run the -stream checks under deterministic injected faults with this schedule seed; completed runs must stay bit-identical to the clean dense reference")
	capCheck := flag.Bool("capacity", false, "additionally check the capacity-arbitrated sharded engine: FaaSCache and LCS under shard counts {2, 5, 16} (and streamed at -shards with -stream) must be bit-identical to their unsharded runs")
	ingestCSV := flag.String("ingest", "", "real-trace mode: check this Azure-format CSV through materialized, sharded, and columnar-store (cold + warm) paths for bit-identity; generation flags are ignored")
	flag.Parse()

	if *ingestCSV != "" {
		if *stream || *streamOnly || *capCheck || *scenario != "" || *faultSeed != 0 || *retrain != 0 || *cacheDir != "" || *minDiskHits != 0 {
			return fmt.Errorf("-ingest is a self-contained mode; it cannot be combined with -stream, -streamonly, -capacity, -scenario, -faults, -retrain-every, -cache-dir, or -mindiskhits")
		}
		if *shards < 2 {
			return fmt.Errorf("-ingest needs -shards >= 2 (a green run must actually exercise the store partition), got %d", *shards)
		}
		if *trainDays <= 0 {
			return fmt.Errorf("-train-days must be positive, got %d", *trainDays)
		}
		return runIngestCheck(*ingestCSV, *trainDays, *shards, *workers, *maxHeap)
	}

	// Flag validation up front: every bad combination must come back as an
	// error with exit code 1, never as a library panic's stack trace.
	if *functions <= 0 {
		return fmt.Errorf("-functions must be positive, got %d", *functions)
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive, got %d", *days)
	}
	if *trainDays <= 0 || *trainDays >= *days {
		return fmt.Errorf("-train-days %d outside (0, %d): the workload needs both a training and a simulation window", *trainDays, *days)
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
		// The capacity engine holds every shard resident for its lockstep
		// barrier, so it cannot run under the O(n/P) residency guard.
		return fmt.Errorf("-capacity cannot be combined with -streamonly (capacity arbitration is lockstep: all shards stay resident)")
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

	s := experiments.DefaultSettings()
	s.Functions = *functions
	s.Days = *days
	s.TrainDays = *trainDays
	if *sparse {
		s.TriggerMix = trace.SparseTriggerMix()
	}
	// Scenario cohorts are drawn from the workload seed, so the scenario is
	// (re-)applied after every per-seed s.Seed assignment below; this first
	// application only validates the name before any work starts.
	if err := s.ApplyScenario(*scenario); err != nil {
		return err
	}

	watch := memwatch.Watch()
	if *streamOnly {
		if *shards < 1 {
			return fmt.Errorf("-streamonly needs -shards >= 1")
		}
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			s.Seed = seed
			if err := s.ApplyScenario(*scenario); err != nil {
				return err
			}
			a, err := runStreamed(s, *shards, sim.Options{Workers: *workers, RetrainEvery: *retrain})
			if err != nil {
				return err
			}
			b, err := runStreamed(s, 2*(*shards), sim.Options{Workers: *workers, RetrainEvery: *retrain})
			if err != nil {
				return err
			}
			if err := compare(fmt.Sprintf("seed %d: streamed x%d vs x%d", seed, *shards, 2*(*shards)), a, b); err != nil {
				return err
			}
			fmt.Printf("seed %d: identical (cold=%d wmt=%d mem=%d)\n",
				seed, a.TotalColdStarts, a.TotalWMT, a.TotalMemory)
		}
		return checkHeap(watch, *maxHeap)
	}

	// One disk tier is shared by every seed's cache checks; entries are
	// content-keyed, so seeds never collide.
	var disk *sim.DiskCache
	// Only a run over a persistent -cache-dir has anything to resume from,
	// so only there do signals drain instead of kill (a nil Stop never fires).
	var stop <-chan struct{}
	if *stream {
		dir := *cacheDir
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
		var err error
		if inj != nil {
			disk, err = sim.OpenDiskCacheFS(dir, inj.FS())
		} else {
			disk, err = sim.OpenDiskCache(dir)
		}
		if err != nil {
			return err
		}
	}
	var coldDiskHits int64

	for seed := int64(1); seed <= int64(*seeds); seed++ {
		s.Seed = seed
		if err := s.ApplyScenario(*scenario); err != nil {
			return err
		}
		_, train, simTr, err := experiments.BuildWorkload(s)
		if err != nil {
			return err
		}
		rd, err := sim.Run(core.NewDenseReference(core.DefaultConfig()), train, simTr, sim.Options{RetrainEvery: *retrain})
		if err != nil {
			return err
		}
		re, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{RetrainEvery: *retrain})
		if err != nil {
			return err
		}
		if err := compare(fmt.Sprintf("seed %d: event", seed), rd, re); err != nil {
			return err
		}
		if *shards > 1 {
			rs, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
				sim.Options{Shards: *shards, RetrainEvery: *retrain, FaultHook: hook, Stop: stop})
			if err != nil {
				return err
			}
			if err := compare(fmt.Sprintf("seed %d: sharded x%d", seed, *shards), rd, rs); err != nil {
				return err
			}
		}
		if *stream {
			rs, err := runStreamed(s, *shards, sim.Options{Workers: *workers, RetrainEvery: *retrain, FaultHook: hook, Stop: stop})
			if err != nil {
				return err
			}
			if err := compare(fmt.Sprintf("seed %d: streamed x%d", seed, *shards), rd, rs); err != nil {
				return err
			}

			// Shard-cache check, through the disk tier: a cold pass (misses
			// in this process — or disk hits, when -cache-dir carries entries
			// from an earlier process), a warm pass (in-memory hits), and a
			// warm-after-restart pass (a FRESH in-memory cache over the same
			// entry directory, so every hit must restore from disk) must all
			// match the reference.
			cache := sim.NewShardCache()
			// The assertions below demand exact tier-by-tier traffic, so the
			// default LRU budget must not evict anything mid-check (a cold
			// pass at a shard count above the budget would spill entries the
			// warm pass then restores from disk — correct, but it would trip
			// the in-memory-hits-only assertion).
			cache.SetBudget(0, 0)
			cache.AttachDisk(disk)
			runCached := func(label string) error {
				rc, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
					sim.Options{Shards: *shards, Cache: cache, RetrainEvery: *retrain, FaultHook: hook, Stop: stop})
				if err != nil {
					return err
				}
				return compare(fmt.Sprintf("seed %d: cached (%s) x%d", seed, label, *shards), rd, rc)
			}
			if err := runCached("cold"); err != nil {
				return err
			}
			// Tier-by-tier traffic is only exact on a clean run: under
			// -faults a failed restore legitimately re-simulates and a
			// failed store legitimately leaves a future miss, so only the
			// result comparisons above hold there.
			coldSt := cache.Stats()
			if inj == nil {
				// Cold pass: one lookup per shard, none served from memory —
				// every hit must be a disk restore (a pre-warmed -cache-dir)
				// and everything else a miss.
				if coldSt.Hits+coldSt.Misses != int64(*shards) || coldSt.Hits != coldSt.DiskHits {
					return fmt.Errorf("seed %d: cold pass stats %+v, want %d lookups with no in-memory hits", seed, coldSt, *shards)
				}
			}
			coldDiskHits += coldSt.DiskHits
			if err := runCached("warm"); err != nil {
				return err
			}
			if inj == nil {
				// Warm pass: every shard must be an IN-MEMORY hit — no
				// misses, no disk restores. A broken memory tier silently
				// served by disk (or re-simulating) must fail here.
				warmSt := cache.Stats()
				if warmSt.Hits-coldSt.Hits != int64(*shards) || warmSt.Misses != coldSt.Misses || warmSt.DiskHits != coldSt.DiskHits {
					return fmt.Errorf("seed %d: warm pass stats %+v (after cold %+v), want %d in-memory hits and nothing else", seed, warmSt, coldSt, *shards)
				}
			}

			restarted := sim.NewShardCache()
			restarted.AttachDisk(disk)
			rr, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
				sim.Options{Shards: *shards, Cache: restarted, RetrainEvery: *retrain, FaultHook: hook, Stop: stop})
			if err != nil {
				return err
			}
			if err := compare(fmt.Sprintf("seed %d: cached (restart) x%d", seed, *shards), rd, rr); err != nil {
				return err
			}
			if st := restarted.Stats(); inj == nil && st.DiskHits != int64(*shards) {
				return fmt.Errorf("seed %d: restart pass stats %+v, want %d disk hits (entries did not survive)", seed, st, *shards)
			}
		}
		if *capCheck {
			if err := checkCapacity(s, seed, train, simTr, *stream, *shards, *workers); err != nil {
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
// bit-identity across every path that can serve it — ReadCSV materialized
// (unsharded and sharded), a cold columnar-store ingest, and a warm store
// reopen — plus a store-sourced shard-cache pass whose second run must be
// served entirely from memory (the store fingerprints key the cache).
func runIngestCheck(path string, trainDays, shards, workers int, maxHeap uint64) error {
	watch := memwatch.Watch()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	full, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	splitAt := trainDays * 1440
	if splitAt <= 0 || splitAt >= full.Slots {
		return fmt.Errorf("-train-days %d out of range for a %d-slot trace", trainDays, full.Slots)
	}
	train, simTr := full.Split(splitAt)

	dir, err := os.MkdirTemp("", "eqvcheck-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	st, stats, err := trace.IngestCSV(f, dir, trace.IngestOptions{Shards: shards})
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("ingested %s: %d functions x %d slots, %d events, %d shards, %d bytes\n",
		path, stats.Functions, stats.Slots, stats.Events, stats.Shards, stats.StoreBytes)
	src, err := st.Source(splitAt)
	if err != nil {
		return err
	}

	var spesRef *sim.Result
	for _, m := range []struct {
		name string
		mk   func() sim.Policy
	}{
		{"SPES", func() sim.Policy { return core.New(core.DefaultConfig()) }},
		{"FixedKeepAlive", func() sim.Policy { return baselines.NewFixedKeepAlive(10) }},
	} {
		ref, err := sim.Run(m.mk(), train, simTr, sim.Options{})
		if err != nil {
			return err
		}
		if m.name == "SPES" {
			spesRef = ref
		}
		rs, err := sim.Run(m.mk(), train, simTr, sim.Options{Shards: shards, Workers: workers})
		if err != nil {
			return err
		}
		if err := compare(fmt.Sprintf("%s: sharded x%d", m.name, shards), ref, rs); err != nil {
			return err
		}
		rc, err := sim.RunStreamed(m.mk(), src, sim.Options{Workers: workers})
		if err != nil {
			return err
		}
		if err := compare(fmt.Sprintf("%s: store (cold) x%d", m.name, shards), ref, rc); err != nil {
			return err
		}
		fmt.Printf("%s: materialized, sharded, and store-sourced identical (cold=%d wmt=%d mem=%d)\n",
			m.name, ref.TotalColdStarts, ref.TotalWMT, ref.TotalMemory)
	}

	// Warm path: a fresh OpenStore (manifest re-verified, shard files
	// re-read) must reproduce the same results without the CSV.
	st2, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	src2, err := st2.Source(splitAt)
	if err != nil {
		return err
	}
	rw, err := sim.RunStreamed(core.New(core.DefaultConfig()), src2, sim.Options{Workers: workers})
	if err != nil {
		return err
	}
	if err := compare(fmt.Sprintf("SPES: store (warm reopen) x%d", shards), spesRef, rw); err != nil {
		return err
	}

	// Cache pass: the store's fingerprints must key the shard cache — the
	// second run over the same source is served entirely from memory.
	cache := sim.NewShardCache()
	cache.SetBudget(0, 0)
	for _, label := range []string{"cold", "warm"} {
		rc, err := sim.RunStreamed(core.New(core.DefaultConfig()), src2, sim.Options{Workers: workers, Cache: cache})
		if err != nil {
			return err
		}
		if err := compare(fmt.Sprintf("SPES: store cached (%s) x%d", label, shards), spesRef, rc); err != nil {
			return err
		}
	}
	if cst := cache.Stats(); cst.Hits != int64(shards) || cst.Misses != int64(shards) {
		return fmt.Errorf("store cache stats %+v, want exactly %d misses then %d in-memory hits (are store fingerprints keying the cache?)", cst, shards, shards)
	}
	fmt.Printf("store: warm reopen and fingerprint-keyed cache identical\n")
	return checkHeap(watch, maxHeap)
}

// checkCapacity runs the -capacity pass for one seed: FaaSCache and LCS —
// the capacity-coupled baselines, which shard through the arbitrated
// lockstep engine rather than as independent instances — simulated
// unsharded and at shard counts {2, 5, 16} (plus streamed at -shards when
// -stream is set), every sharded run compared bit-for-bit against the
// unsharded reference. The pool capacity is a third of the population:
// small enough that evictions happen constantly, large enough that loaded
// functions also idle (so WMT and EMCR are non-degenerate).
func checkCapacity(s experiments.Settings, seed int64, train, simTr *trace.Trace, stream bool, shards, workers int) error {
	pool := train.NumFunctions() / 3
	if pool < 1 {
		pool = 1
	}
	mks := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"FaaSCache", func() sim.Policy { return baselines.NewFaaSCache(pool) }},
		{"LCS", func() sim.Policy { return baselines.NewLCS(pool) }},
	}
	for _, m := range mks {
		ref, err := sim.Run(m.mk(), train, simTr, sim.Options{})
		if err != nil {
			return err
		}
		if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
			return fmt.Errorf("seed %d: %s capacity reference is degenerate (cold=%d wmt=%d); the -capacity pass would prove nothing",
				seed, m.name, ref.TotalColdStarts, ref.TotalWMT)
		}
		for _, p := range []int{2, 5, 16} {
			rc, err := sim.Run(m.mk(), train, simTr, sim.Options{Shards: p, Workers: workers})
			if err != nil {
				return err
			}
			if err := compare(fmt.Sprintf("seed %d: %s capacity x%d", seed, m.name, p), ref, rc); err != nil {
				return err
			}
		}
		if stream {
			src, err := experiments.StreamSource(s, shards)
			if err != nil {
				return err
			}
			rc, err := sim.RunStreamed(m.mk(), src, sim.Options{Workers: workers})
			if err != nil {
				return err
			}
			if err := compare(fmt.Sprintf("seed %d: %s capacity streamed x%d", seed, m.name, shards), ref, rc); err != nil {
				return err
			}
		}
		fmt.Printf("seed %d: %s capacity (pool=%d) identical across shard counts (cold=%d wmt=%d mem=%d)\n",
			seed, m.name, pool, ref.TotalColdStarts, ref.TotalWMT, ref.TotalMemory)
	}
	return nil
}

// runStreamed simulates SPES over the settings' workload through the
// streamed engine: the trace pair is produced one shard at a time inside
// the simulation workers, pipelined with their simulations.
func runStreamed(s experiments.Settings, shards int, opts sim.Options) (*sim.Result, error) {
	src, err := experiments.StreamSource(s, shards)
	if err != nil {
		return nil, err
	}
	return sim.RunStreamed(core.New(core.DefaultConfig()), src, opts)
}

// checkHeap enforces -maxheap over the sampled run.
func checkHeap(watch *memwatch.Watcher, maxHeap uint64) error {
	peak, after := watch.Finish()
	fmt.Printf("heap: peak=%d after-gc=%d bytes\n", peak, after)
	if maxHeap > 0 && peak > maxHeap {
		return fmt.Errorf("peak heap %d exceeds -maxheap %d (O(n/P) residency regressed?)", peak, maxHeap)
	}
	return nil
}

// compare returns an error with a field-level diff when got differs from
// the reference (Overhead excluded: wall clock).
func compare(label string, ref, got *sim.Result) error {
	d, g := *ref, *got
	d.Overhead, g.Overhead = 0, 0
	if reflect.DeepEqual(&d, &g) {
		return nil
	}
	fmt.Printf("%s: MISMATCH\n", label)
	fmt.Printf("ref:   cold=%d wmt=%d mem=%d emcr=%v max=%d\n", d.TotalColdStarts, d.TotalWMT, d.TotalMemory, d.EMCRSum, d.MaxLoaded)
	fmt.Printf("other: cold=%d wmt=%d mem=%d emcr=%v max=%d\n", g.TotalColdStarts, g.TotalWMT, g.TotalMemory, g.EMCRSum, g.MaxLoaded)
	n := 0
	for fid := range d.PerFunc {
		if d.PerFunc[fid] != g.PerFunc[fid] {
			fmt.Printf("  f%d ref=%+v other=%+v type=%s\n", fid, d.PerFunc[fid], g.PerFunc[fid], d.Types[fid])
			n++
			if n > 8 {
				break
			}
		}
	}
	for fid := range d.Types {
		if d.Types[fid] != g.Types[fid] {
			fmt.Printf("  f%d type ref=%s other=%s\n", fid, d.Types[fid], g.Types[fid])
			n++
			if n > 12 {
				break
			}
		}
	}
	return fmt.Errorf("%s: results diverged", label)
}
