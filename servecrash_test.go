// Crash-safety proof for the serving daemon: a spes-serve-style process
// SIGKILLed mid-ingest restarts from its snapshot + journaled tail into a
// policy state bit-identical to a daemon that was never disturbed, clean
// and under the injected serving fault schedule. The daemon runs in a child
// process (re-exec of this test binary) so the kill is a real SIGKILL — no
// deferred cleanup, no flush on the way out — and the client's full
// re-delivery after restart doubles as the exactly-once check: everything
// applied before the kill must come back as duplicate acks.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	scDirEnv    = "REPRO_SERVECRASH_DIR"
	scAddrEnv   = "REPRO_SERVECRASH_ADDRFILE"
	scFaultsEnv = "REPRO_SERVECRASH_FAULTS"

	scEndSlot = 600 // simulation slots ingested per run

	// scFaultsPath is the helper's test-only route answering its injector's
	// per-class fault counts.
	scFaultsPath = "/test/faults"
)

// serveCrashWorkload is the shared parent/child workload: identical flags =
// identical trace, the same contract the real binaries document.
func serveCrashWorkload(t *testing.T) (train, simTr *trace.Trace) {
	t.Helper()
	s := experiments.Settings{Functions: 100, Days: 3, TrainDays: 2, Seed: 1, SPES: core.DefaultConfig()}
	if err := s.ApplyScenario("flashcrowd"); err != nil {
		t.Fatal(err)
	}
	return buildWorkload(t, s)
}

func serveCrashConfig(dir string, train *trace.Trace) serve.Config {
	return serve.Config{
		Dir:           dir,
		Policy:        core.DefaultConfig(),
		Training:      train,
		RetrainEvery:  480,
		SnapshotEvery: 120,
	}
}

// TestServeCrashHelperProcess is not a test of its own: it is the daemon
// child for TestServeKillAndRestoreBitIdentical, selected via -test.run and
// parameterized by environment. It serves until killed. Without the env it
// skips.
func TestServeCrashHelperProcess(t *testing.T) {
	dir := os.Getenv(scDirEnv)
	if dir == "" {
		t.Skip("helper process for TestServeKillAndRestoreBitIdentical")
	}
	faultSeed, _ := strconv.ParseInt(os.Getenv(scFaultsEnv), 10, 64)
	train, _ := serveCrashWorkload(t)
	cfg := serveCrashConfig(dir, train)
	var inj *faultinject.Injector
	if faultSeed != 0 {
		inj = faultinject.New(faultSeed, faultinject.ServeDefault())
		cfg.FS = inj.FS()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	handler := srv.Handler()
	if inj != nil {
		handler = inj.Handler(handler)
	}
	// The injector's counts die with the SIGKILLed process, so the helper
	// answers them on a route of its own for the parent to read first.
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("GET "+scFaultsPath, func(w http.ResponseWriter, _ *http.Request) {
		counts := map[string]int64{}
		if inj != nil {
			counts = inj.Counts()
		}
		json.NewEncoder(w).Encode(counts)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish the address atomically; the parent polls for this file.
	addrFile := os.Getenv(scAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	t.Fatal(http.Serve(ln, mux)) // serves until SIGKILL
}

// spawnServeDaemon re-execs this binary as a serving daemon on dir and
// waits for its listen address.
func spawnServeDaemon(t *testing.T, dir string, faultSeed int64) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	var output bytes.Buffer
	cmd := exec.Command(exe, "-test.run=TestServeCrashHelperProcess$")
	cmd.Env = append(os.Environ(),
		scDirEnv+"="+dir,
		scAddrEnv+"="+addrFile,
		scFaultsEnv+"="+strconv.FormatInt(faultSeed, 10))
	cmd.Stdout, cmd.Stderr = &output, &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, string(b), &output
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("daemon never published its address; output:\n%s", output.String())
	return nil, "", nil
}

func crashClient(base string) *serve.Client {
	return &serve.Client{
		Base:  base,
		Retry: retry.Policy{MaxAttempts: 20, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond},
	}
}

func TestServeKillAndRestoreBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	train, simTr := serveCrashWorkload(t)

	// The undisturbed reference: an in-process daemon ingesting the same
	// stream with no kill and no faults.
	refSrv, err := serve.New(serveCrashConfig(t.TempDir(), train))
	if err != nil {
		t.Fatal(err)
	}
	refHTTP := httptest.NewServer(refSrv.Handler())
	refRep, err := serve.Replay(crashClient(refHTTP.URL), simTr, serve.LoadOptions{BatchSlots: 4, End: scEndSlot})
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	wantHash, _, wantSeq, err := refSrv.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	refHTTP.Close()
	refSrv.Close()

	for _, tc := range []struct {
		name      string
		faultSeed int64
	}{
		{"clean", 0},
		{"faultseed7", 7}, // dropped connections + torn snapshot writes
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			victim, addr, victimOut := spawnServeDaemon(t, dir, tc.faultSeed)

			// Stream the window paced slow enough to be killed mid-flight;
			// the send error after the kill is expected and ignored.
			sendDone := make(chan error, 1)
			go func() {
				_, err := serve.Replay(crashClient("http://"+addr), simTr,
					serve.LoadOptions{BatchSlots: 4, Rate: 1000, End: scEndSlot})
				sendDone <- err
			}()

			// Kill once the daemon has journaled a real prefix and taken at
			// least one snapshot — mid-stream, no drain, no flush.
			journal := filepath.Join(dir, "journal.wal")
			journaledAtKill := 0
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
				if b, err := os.ReadFile(journal); err == nil && len(snaps) > 0 {
					if n := bytes.Count(b, []byte("\n")); n >= 100 {
						journaledAtKill = n
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
			if journaledAtKill == 0 {
				victim.Process.Kill()
				victim.Wait()
				t.Fatalf("daemon journaled no snapshot-covered prefix within 30s; output:\n%s", victimOut.String())
			}
			if err := victim.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			victim.Wait() // reap; a SIGKILLed child reports an error by design
			<-sendDone    // the sender sees the dead server and gives up
			if totalSlots := countOccupied(simTr, scEndSlot); journaledAtKill >= totalSlots {
				t.Fatalf("kill landed after the full stream (%d batches) was ingested; not a mid-stream crash", totalSlots)
			}

			// Restart on the same directory and re-deliver the ENTIRE stream
			// from seq 1: everything applied before the kill must come back
			// as duplicate acks (exactly-once across the crash), the rest
			// applies, and the final state must match the undisturbed run.
			restarted, addr2, out2 := spawnServeDaemon(t, dir, tc.faultSeed)
			defer func() {
				restarted.Process.Kill()
				restarted.Wait()
			}()
			c2 := crashClient("http://" + addr2)
			rep, err := serve.Replay(c2, simTr, serve.LoadOptions{BatchSlots: 4, End: scEndSlot})
			if err != nil {
				t.Fatalf("re-delivery after restart: %v\ndaemon output:\n%s", err, out2.String())
			}
			if rep.Duplicates == 0 {
				t.Errorf("no duplicate acks on full re-delivery: the journaled prefix (%d batches) was lost", journaledAtKill)
			}
			var hr serve.StateHashReply
			if err := getJSON(c2.Base, "/v1/statehash", &hr); err != nil {
				t.Fatal(err)
			}
			var m serve.Metrics
			if err := getJSON(c2.Base, "/v1/metrics", &m); err != nil {
				t.Fatal(err)
			}
			if want := hashString(wantHash); hr.StateHash != want {
				t.Errorf("restored daemon state %s != undisturbed %s (restored from snapshot seq %d, replayed %d records)",
					hr.StateHash, want, m.RestoredFromSeq, m.ReplayedRecords)
			}
			if hr.Seq != wantSeq || refRep.Batches+rep.Batches+rep.Duplicates != 2*refRep.Batches {
				t.Errorf("stream position: seq %d want %d; applied %d + duplicates %d vs reference %d",
					hr.Seq, wantSeq, rep.Batches, rep.Duplicates, refRep.Batches)
			}
			var faults map[string]int64
			if err := getJSON(c2.Base, scFaultsPath, &faults); err != nil {
				t.Fatal(err)
			}
			if tc.faultSeed != 0 && len(faults) == 0 { // Counts holds only classes that fired
				t.Errorf("fault seed %d: the restarted daemon injected no fault (%v); the run was a second clean one", tc.faultSeed, faults)
			}
			t.Logf("restarted daemon's injected faults: %v", faults)
			if tc.faultSeed == 0 && m.RestoredFromSeq == 0 {
				t.Error("clean restart did not restore from a snapshot despite one existing at kill time")
			}
		})
	}
}

func countOccupied(tr *trace.Trace, end int) int {
	idx := tr.BuildSlotIndex()
	n := 0
	for s := 0; s < end && s < tr.Slots; s++ {
		if len(idx.Invocations[s]) > 0 {
			n++
		}
	}
	return n
}

func hashString(h uint64) string {
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := range out {
		out[i] = hexdigits[(h>>(60-4*i))&0xf]
	}
	return string(out[:])
}

// getJSON decodes the daemon's reply to GET base+path into v.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
