// Kill-and-resume proof: a sweep process SIGKILLed mid-run leaves a disk
// cache from which a rerun with the same flags completes bit-identical to a
// never-interrupted run, re-simulating only the units whose entries the dead
// process had not committed. The checksummed shard-cache entry files are
// the one resume record. The sweep runs in a child process (re-exec of this test
// binary) so the kill is a real SIGKILL — no deferred cleanup, no flush on
// the way out.
package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// delayHook stretches every shard so the parent has a wide window to kill
// the child mid-sweep.
type delayHook time.Duration

func (d delayHook) BeforeShard(int, int) { time.Sleep(time.Duration(d)) }

const (
	ftDirEnv   = "REPRO_FAULTTOL_DIR"
	ftDelayEnv = "REPRO_FAULTTOL_DELAY_MS"
	ftOutEnv   = "REPRO_FAULTTOL_OUT"
)

// TestFaultToleranceHelperProcess is not a test of its own: it is the
// child body for TestKillAndResumeBitIdentical, selected via -test.run
// and parameterized by environment. Without the env it skips.
func TestFaultToleranceHelperProcess(t *testing.T) {
	dir := os.Getenv(ftDirEnv)
	if dir == "" {
		t.Skip("helper process for TestKillAndResumeBitIdentical")
	}
	delayMs, _ := strconv.Atoi(os.Getenv(ftDelayEnv))

	_, train, simTr, err := experiments.BuildWorkload(experiments.SparseSettings(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sim.OpenShardCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hook sim.ShardFaultHook
	if delayMs > 0 {
		hook = delayHook(time.Duration(delayMs) * time.Millisecond)
	}
	opts := sim.Options{Shards: 6, Cache: cache, FaultHook: hook}

	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, theta := range []int{1, 3, 10, 30} {
		cfg := core.DefaultConfig()
		cfg.Classify.ThetaPrewarm = theta
		res, err := sim.Run(core.New(cfg), train, simTr, opts)
		if err != nil {
			t.Fatalf("theta %d: %v", theta, err)
		}
		c := *res
		c.Overhead = 0
		if err := enc.Encode(&c); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	line := fmt.Sprintf("%016x %d %d\n", h.Sum64(), st.Hits, st.Misses)
	if err := os.WriteFile(os.Getenv(ftOutEnv), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runHelper re-execs this test binary as the sweep child and parses its
// report: results hash, units restored from disk entries, and units it
// simulated and stored itself (every miss of a completed sweep is one).
func runHelper(t *testing.T, dir string, delayMs int) (hash string, diskHits, stored int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "report")
	cmd := exec.Command(exe, "-test.run=TestFaultToleranceHelperProcess$")
	cmd.Env = append(os.Environ(),
		ftDirEnv+"="+dir,
		ftDelayEnv+"="+strconv.Itoa(delayMs),
		ftOutEnv+"="+out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, b)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("helper wrote no report: %v", err)
	}
	f := strings.Fields(string(b))
	if len(f) != 3 {
		t.Fatalf("malformed helper report %q", b)
	}
	diskHits, _ = strconv.Atoi(f[1])
	stored, _ = strconv.Atoi(f[2])
	return f[0], diskHits, stored
}

func TestKillAndResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	cleanHash, _, cleanStored := runHelper(t, t.TempDir(), 0)

	// Start the same sweep slowed down, wait until it has committed at
	// least two entries, and SIGKILL it — no drain, no flush. Entries are
	// committed by temp file + rename, so a listed entry is a whole entry.
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	victim := exec.Command(exe, "-test.run=TestFaultToleranceHelperProcess$")
	victim.Env = append(os.Environ(),
		ftDirEnv+"="+dir,
		ftDelayEnv+"=300",
		ftOutEnv+"="+filepath.Join(dir, "never-written"))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	entriesAtKill := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if names, _ := filepath.Glob(filepath.Join(dir, "shard-*.sce")); len(names) >= 2 {
			entriesAtKill = len(names)
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if entriesAtKill == 0 {
		victim.Process.Kill()
		victim.Wait()
		t.Fatal("victim committed fewer than two entries within 30s; cannot stage a mid-run kill")
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() // reap; a SIGKILLed child reports an error by design

	// The rerun must be served every entry the dead process committed,
	// simulate only the rest, and finish bit-identical to the clean run.
	resumeHash, diskHits, stored := runHelper(t, dir, 0)
	t.Logf("killed at %d committed entries; the rerun restored %d and simulated %d of the clean run's %d units",
		entriesAtKill, diskHits, stored, cleanStored)
	if resumeHash != cleanHash {
		t.Errorf("resumed run hash %s != clean run hash %s — resume changed results", resumeHash, cleanHash)
	}
	if diskHits < entriesAtKill {
		t.Errorf("resumed run restored %d entries from disk, want >= the %d present at the kill", diskHits, entriesAtKill)
	}
	if stored >= cleanStored {
		t.Errorf("resumed run simulated %d units, the clean run %d — it resumed nothing", stored, cleanStored)
	}
}
