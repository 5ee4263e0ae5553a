package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testWorkload builds a small generated train/sim pair.
func testWorkload(t testing.TB, funcs int, scenario string) (train, simTr *trace.Trace) {
	t.Helper()
	s := experiments.Settings{Functions: funcs, Days: 3, TrainDays: 2, Seed: 1, SPES: core.DefaultConfig()}
	if scenario != "" {
		if err := s.ApplyScenario(scenario); err != nil {
			t.Fatalf("ApplyScenario(%s): %v", scenario, err)
		}
	}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	return train, simTr
}

// runRef drives a reference policy through the same event stream a daemon
// ingests — occupied slots only, via sim.Driver — and returns it for state
// comparison. The driver is deliberately not Closed: the daemon's stream
// position is the last applied slot + 1, not the trace end.
func runRef(t *testing.T, train, simTr *trace.Trace, retrainEvery, end int) *core.SPES {
	t.Helper()
	ref := core.New(core.DefaultConfig())
	ref.Train(train)
	dcfg := sim.DriverConfig{CollectCold: true}
	if retrainEvery > 0 {
		dcfg.RetrainEvery = retrainEvery
		dcfg.RetrainWindow = train.Slots
		dcfg.Window = func(tt, w int) *trace.Trace {
			return sim.BuildRetrainWindow(train, simTr, tt, w)
		}
	}
	d := sim.NewDriver(ref, simTr.NumFunctions(), dcfg)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < end; s++ {
		if len(idx.Invocations[s]) == 0 {
			continue
		}
		if _, err := d.Step(s, idx.Invocations[s]); err != nil {
			t.Fatalf("reference Step(%d): %v", s, err)
		}
	}
	return ref
}

// slotBatch is the ingest batch of one occupied slot (seq left to the client).
func slotBatch(slot int, invs []trace.FuncCount) Batch {
	b := Batch{Slot: slot}
	for _, fc := range invs {
		b.Events = append(b.Events, EventPair{int64(fc.Func), int64(fc.Count)})
	}
	return b
}

func mustHash(t *testing.T, p *core.SPES) uint64 {
	t.Helper()
	h, err := p.StateHash()
	if err != nil {
		t.Fatalf("StateHash: %v", err)
	}
	return h
}

func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, &Client{Base: hs.URL}
}

// TestReplayRejectsNegativeStart: a negative Start is refused with an error
// naming it, and the daemon receives nothing.
func TestReplayRejectsNegativeStart(t *testing.T) {
	train, simTr := testWorkload(t, 20, "")
	s, c := startServer(t, Config{Dir: t.TempDir(), Policy: core.DefaultConfig(), Training: train})
	defer s.Close()
	rep, err := Replay(c, simTr, LoadOptions{Start: -1})
	if err == nil || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("Replay from slot -1: got (%+v, %v), want an error naming the start", rep, err)
	}
	if n := s.c.appliedBatches.Load(); n != 0 {
		t.Errorf("the daemon applied %d batches from a refused replay", n)
	}
}

func waitApplied(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s.c.appliedBatches.Load() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("daemon applied %d of %d batches before the deadline", s.c.appliedBatches.Load(), want)
}

// TestServeMatchesBatchRun is the serving-vs-batch parity check: replaying
// the simulation window through the HTTP ingest path — batched requests,
// retrain boundaries, periodic snapshots — must land the daemon on exactly
// the state a batch driver computes from the same trace.
func TestServeMatchesBatchRun(t *testing.T) {
	train, simTr := testWorkload(t, 120, "")
	s, c := startServer(t, Config{
		Dir:      t.TempDir(),
		Policy:   core.DefaultConfig(),
		Training: train,
		// Boundaries and snapshots both land mid-replay.
		RetrainEvery:  480,
		SnapshotEvery: 500,
	})
	defer s.Close()

	rep, err := Replay(c, simTr, LoadOptions{BatchSlots: 8})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Batches != rep.Slots || rep.Degraded != 0 || rep.Duplicates != 0 {
		t.Fatalf("clean replay expected all-applied: %+v", rep)
	}
	ref := runRef(t, train, simTr, 480, simTr.Slots)

	gotHash, _, _, err := s.StateHash()
	if err != nil {
		t.Fatalf("server StateHash: %v", err)
	}
	if want := mustHash(t, ref); gotHash != want {
		t.Fatalf("served state hash %016x != batch %016x", gotHash, want)
	}
	// And over the wire:
	var hr StateHashReply
	if err := getJSON(c.Base, "/v1/statehash", &hr); err != nil {
		t.Fatalf("GET /v1/statehash: %v", err)
	}
	if want := len(strings.TrimLeft(hr.StateHash, "0123456789abcdef")); want != 0 {
		t.Fatalf("state hash %q is not hex", hr.StateHash)
	}
	var m Metrics
	if err := getJSON(c.Base, "/v1/metrics", &m); err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	if m.AppliedBatches != rep.Slots || m.Snapshots == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestWheelDepthIsPendingDeadlines: /v1/metrics' wheel_depth is the exact
// number of pending deadlines — the functions whose eventSlot column in the
// state blob is set — on a live daemon and on one restored from its state
// directory, where the wheel is rebuilt from that column alone.
func TestWheelDepthIsPendingDeadlines(t *testing.T) {
	train, simTr := testWorkload(t, 120, "")
	dir := t.TempDir()
	cfg := Config{Dir: dir, Policy: core.DefaultConfig(), Training: train, RetrainEvery: 480, SnapshotEvery: 500}
	s, c := startServer(t, cfg)
	if _, err := Replay(c, simTr, LoadOptions{BatchSlots: 8}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	check := func(when string, s *Server, c *Client) {
		t.Helper()
		var m Metrics
		if err := getJSON(c.Base, "/v1/metrics", &m); err != nil {
			t.Fatalf("%s: GET /v1/metrics: %v", when, err)
		}
		s.mu.Lock()
		want := pendingDeadlines(t, s.policy)
		s.mu.Unlock()
		if m.WheelDepth != want || want == 0 {
			t.Fatalf("%s: wheel_depth %d, state blob holds %d pending deadlines", when, m.WheelDepth, want)
		}
	}
	check("live", s, c)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restored, rc := startServer(t, cfg)
	defer restored.Close()
	check("restored", restored, rc)
}

// pendingDeadlines counts the functions with an outstanding wheel deadline
// (eventSlot >= 0) by reading the ST1 state blob's per-function columns.
func pendingDeadlines(t *testing.T, p *core.SPES) int {
	t.Helper()
	blob, err := p.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	d := durable.NewDec(blob)
	d.Take(len("SPES-ST1"))
	d.U64() // config hash
	d.I64() // trainSlots
	d.I64() // lastTick
	n := int(d.I64())
	for i := 0; i < n; i++ {
		for range 3 { // name, app, user
			d.Take(d.Count(d.I64(), 1))
		}
		d.U8() // trigger
	}
	pending := 0
	for i := 0; i < n; i++ {
		d.I64() // lastInvoked
		if d.I64() >= 0 {
			pending++
		}
		d.U64()  // seq
		d.Bool() // loaded
		d.I64()  // preloadUntil
		d.I64()  // wtOff
	}
	if err := d.Err(); err != nil {
		t.Fatalf("state blob: %v", err)
	}
	return pending
}

// TestOverloadShedsDecisionsNotState runs the daemon with an unmeetable
// decision deadline and a tiny queue under a flash-crowd replay: every
// request must still be answered (degraded or 503-then-retried), the
// process must never stall or panic, and — the load-shedding contract —
// the state must end bit-identical to an unloaded run, because sheds drop
// decisions, never applies.
//
// Under -race this is also the check of the scratch ownership rule: the
// first two occupied slots go by hand, back to back, so the second request
// arrives while the apply loop may still be reading the shed first one — whose
// scratch, had the handler released it at the deadline, the second would now
// be decoding into — and the replay behind them repeats that 700 times.
func TestOverloadShedsDecisionsNotState(t *testing.T) {
	train, simTr := testWorkload(t, 100, "flashcrowd")
	end := 700 // keep the pile-up bounded
	s, c := startServer(t, Config{
		Dir:             t.TempDir(),
		Policy:          core.DefaultConfig(),
		Training:        train,
		SnapshotEvery:   -1,
		QueueDepth:      2,
		EnqueueTimeout:  500 * time.Microsecond,
		DecisionTimeout: time.Nanosecond,
	})
	defer s.Close()
	c.Retry = retry.Policy{MaxAttempts: 200, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond}

	idx := simTr.BuildSlotIndex()
	start, byHand := 0, int64(0)
	for ; byHand < 2; start++ {
		invs := idx.Invocations[start]
		if len(invs) == 0 {
			continue
		}
		if replies, err := c.Send([]Batch{slotBatch(start, invs)}); err != nil || !(replies[0].Degraded || replies[0].Applied) {
			t.Fatalf("slot %d under overload: %+v, %v", start, replies, err)
		}
		byHand++
	}

	rep, err := Replay(c, simTr, LoadOptions{Start: start, End: end})
	if err != nil {
		t.Fatalf("Replay under overload: %v", err)
	}
	if rep.Degraded == 0 {
		t.Fatalf("expected degraded replies under a nanosecond decision deadline: %+v", rep)
	}
	waitApplied(t, s, rep.Slots+byHand)

	ref := runRef(t, train, simTr, 0, end)
	gotHash, _, _, err := s.StateHash()
	if err != nil {
		t.Fatalf("server StateHash: %v", err)
	}
	if want := mustHash(t, ref); gotHash != want {
		t.Fatalf("overloaded daemon state %016x != clean run %016x: shedding touched state", gotHash, want)
	}
	if s.c.shedDecision.Load() == 0 {
		t.Fatal("shed_decision counter stayed zero")
	}
}

// TestDuplicateDeliveryIsIdempotent re-delivers already-applied sequence
// numbers (a second client restarting the seq space) and expects duplicate
// acks with no state change.
func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	train, simTr := testWorkload(t, 60, "")
	s, c := startServer(t, Config{
		Dir: t.TempDir(), Policy: core.DefaultConfig(), Training: train, SnapshotEvery: -1,
	})
	defer s.Close()

	idx := simTr.BuildSlotIndex()
	var batches []Batch
	for slot := 0; slot < simTr.Slots && len(batches) < 10; slot++ {
		invs := idx.Invocations[slot]
		if len(invs) == 0 {
			continue
		}
		batches = append(batches, slotBatch(slot, invs))
	}
	if _, err := c.Send(append([]Batch{}, batches...)); err != nil {
		t.Fatalf("first delivery: %v", err)
	}
	h1, _, _, _ := s.StateHash()

	dup := &Client{Base: c.Base} // fresh seq counter: same seqs re-delivered
	replies, err := dup.Send(append([]Batch{}, batches...))
	if err != nil {
		t.Fatalf("re-delivery: %v", err)
	}
	for _, r := range replies {
		if !r.Duplicate {
			t.Fatalf("re-delivered seq %d not acknowledged as duplicate: %+v", r.Seq, r)
		}
	}
	h2, _, _, _ := s.StateHash()
	if h1 != h2 {
		t.Fatalf("duplicate delivery changed state: %016x -> %016x", h1, h2)
	}
}

// TestSlotPastInt32IsRejected sends a slot the history's int32 event slots
// cannot hold: the batch is rejected before the journal, so nothing is
// journaled (a restart could not replay it either) and the state is the
// one the batches before it left.
func TestSlotPastInt32IsRejected(t *testing.T) {
	train, simTr := testWorkload(t, 20, "")
	dir := t.TempDir()
	s, c := startServer(t, Config{Dir: dir, Policy: core.DefaultConfig(), Training: train, SnapshotEvery: -1})
	idx := simTr.BuildSlotIndex()
	if _, err := c.Send([]Batch{slotBatch(0, idx.Invocations[0])}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	h1, next1, seq1, _ := s.StateHash()

	replies, err := c.Send([]Batch{slotBatch(math.MaxInt32+6, idx.Invocations[0])})
	if err == nil || len(replies) != 1 || replies[0].Applied {
		t.Fatalf("slot 2^31+5 was not rejected: %+v, %v", replies, err)
	}
	h2, next2, seq2, _ := s.StateHash()
	if h1 != h2 || next1 != next2 || seq1 != seq2 {
		t.Fatalf("a rejected batch moved the state: hash %016x -> %016x, next slot %d -> %d, seq %d -> %d",
			h1, h2, next1, next2, seq1, seq2)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j, records, err := openJournal(durable.OS{}, journalPath(dir))
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	j.Close()
	if len(records) != 1 || records[0].Slot != 0 {
		t.Fatalf("journal holds %+v, want only the slot-0 batch", records)
	}
}

// TestAdmitOverIngest drives the live-admission path over HTTP: a function
// announced mid-stream gets the next dense id and the daemon's state
// matches a reference that admitted it directly.
func TestAdmitOverIngest(t *testing.T) {
	train := trace.NewTrace(400)
	ev := make([]trace.Event, 0, 20)
	for s := int32(10); s < 400; s += 20 {
		ev = append(ev, trace.Event{Slot: s, Count: 1})
	}
	train.AddFunction("a", "app", "u", trace.TriggerTimer, ev)
	train.AddFunction("b", "app", "u", trace.TriggerQueue,
		[]trace.Event{{Slot: 7, Count: 2}, {Slot: 300, Count: 1}})

	s, c := startServer(t, Config{
		Dir: t.TempDir(), Policy: core.DefaultConfig(), Training: train, SnapshotEvery: -1,
	})
	defer s.Close()

	replies, err := c.Send([]Batch{
		{Slot: 0, Events: []EventPair{{0, 1}, {1, 2}}},
		{Slot: 5,
			Admit:  []AdmitFunc{{Name: "new", App: "app", User: "u", Trigger: uint8(trace.TriggerQueue)}},
			Events: []EventPair{{1, 1}, {2, 3}}},
	})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(replies) != 2 || len(replies[1].Admitted) != 1 || replies[1].Admitted[0] != 2 {
		t.Fatalf("admission replies: %+v", replies)
	}

	ref := core.New(core.DefaultConfig())
	ref.Train(train)
	d := sim.NewDriver(ref, 2, sim.DriverConfig{CollectCold: true})
	d.Step(0, []trace.FuncCount{{Func: 0, Count: 1}, {Func: 1, Count: 2}})
	ref.Admit(trace.Function{Name: "new", App: "app", User: "u", Trigger: trace.TriggerQueue})
	d.Grow(3)
	d.Step(5, []trace.FuncCount{{Func: 1, Count: 1}, {Func: 2, Count: 3}})

	gotHash, _, _, err := s.StateHash()
	if err != nil {
		t.Fatalf("server StateHash: %v", err)
	}
	if want := mustHash(t, ref); gotHash != want {
		t.Fatalf("admitted-over-HTTP state %016x != direct-admission %016x", gotHash, want)
	}
}

// TestJournalHealsTornTail covers the WAL recovery rules: a torn final
// line is healed by truncation, and damage mid-file ends the journal at the
// last trustworthy record.
func TestJournalHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := journalPath(dir)
	j, recs, err := openJournal(durable.OS{}, path)
	if err != nil {
		t.Fatalf("openJournal (fresh): %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.append(&Batch{Seq: seq, Slot: int(seq) * 10, Events: []EventPair{{0, 1}}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	j.Close()
	intact, _ := os.ReadFile(path)

	// Torn tail: a partial record with no newline.
	if err := os.WriteFile(path, append(append([]byte{}, intact...), []byte("deadbeef {\"seq\":4")...), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := openJournal(durable.OS{}, path)
	if err != nil {
		t.Fatalf("openJournal (torn tail): %v", err)
	}
	j2.Close()
	if len(recs) != 3 {
		t.Fatalf("torn-tail recovery returned %d records, want 3", len(recs))
	}
	healed, _ := os.ReadFile(path)
	if string(healed) != string(intact) {
		t.Fatal("torn tail was not truncated back to the last good record")
	}

	// Mid-file damage: flip a payload byte of record 2.
	damaged := append([]byte{}, intact...)
	lines := strings.SplitAfter(string(intact), "\n")
	off := len(lines[0]) + len(lines[1])/2
	damaged[off] ^= 0x20
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, recs, err := openJournal(durable.OS{}, path)
	if err != nil {
		t.Fatalf("openJournal (mid-file damage): %v", err)
	}
	j3.Close()
	if len(recs) != 1 {
		t.Fatalf("mid-file damage recovery returned %d records, want 1", len(recs))
	}
}

// tearingFS is the real filesystem, except that the failAt-th journal
// append persists half its record and fails, and Truncate fails with
// truncErr when that is set.
type tearingFS struct {
	durable.OS
	failAt, appends int
	truncErr        error
}

func (fs *tearingFS) OpenAppend(name string) (durable.File, error) {
	f, err := fs.OS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tearingFile{File: f, fs: fs}, nil
}

func (fs *tearingFS) Truncate(name string, size int64) error {
	if fs.truncErr != nil {
		return fs.truncErr
	}
	return fs.OS.Truncate(name, size)
}

type tearingFile struct {
	durable.File
	fs *tearingFS
}

func (f *tearingFile) Write(p []byte) (int, error) {
	if f.fs.appends++; f.fs.appends == f.fs.failAt {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, fmt.Errorf("disk full after %d of %d bytes", n, len(p))
	}
	return f.File.Write(p)
}

// TestJournalCutsFailedAppend: an append that fails after persisting half
// its record rejects the batch, and the journal is cut back to its last
// whole record, so the batch's re-delivery, applied and acknowledged,
// survives a restart. When the cut itself fails, the journal refuses every
// later append instead of acknowledging a record the next heal would drop.
func TestJournalCutsFailedAppend(t *testing.T) {
	train, _ := testWorkload(t, 20, "")
	batch := func(slot int) []Batch { return []Batch{{Slot: slot, Events: []EventPair{{0, 1}}}} }
	for _, tc := range []struct {
		name     string
		truncErr error
		wantSeq  uint64 // last batch to survive the restart
	}{
		{"cut", nil, 2},
		{"cut fails", fmt.Errorf("read-only file system"), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The state a daemon that never failed reaches on the survivors.
			ref, rc := startServer(t, Config{Dir: t.TempDir(), Policy: core.DefaultConfig(), Training: train})
			for slot := 0; slot < int(tc.wantSeq); slot++ {
				if _, err := rc.Send(batch(slot)); err != nil {
					t.Fatal(err)
				}
			}
			want, _, _, err := ref.StateHash()
			if err != nil {
				t.Fatal(err)
			}
			ref.Close()

			cfg := Config{Dir: t.TempDir(), Policy: core.DefaultConfig(), Training: train,
				FS: &tearingFS{failAt: 2, truncErr: tc.truncErr}}
			s, c := startServer(t, cfg)
			if _, err := c.Send(batch(0)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Send(batch(1)); err == nil || !strings.Contains(err.Error(), "disk full") {
				t.Fatalf("torn append: got %v, want the batch rejected with the write's error", err)
			}
			c.nextSeq.Store(1) // re-deliver seq 2
			_, err = c.Send(batch(1))
			if tc.truncErr == nil && err != nil {
				t.Fatalf("re-delivery after a cut journal: %v", err)
			}
			if tc.truncErr != nil && (err == nil || !strings.Contains(err.Error(), "refuses appends")) {
				t.Fatalf("re-delivery after a failed cut: got %v, want the journal's refusal", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.FS = nil
			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			got, _, seq, err := s2.StateHash()
			if err != nil {
				t.Fatal(err)
			}
			if seq != tc.wantSeq || got != want {
				t.Fatalf("after restart: seq %d hash %016x, want seq %d hash %016x", seq, got, tc.wantSeq, want)
			}
		})
	}
}

// TestSnapshotAndJournalGoldenBytes pins both serving formats to bytes
// recorded from the writers before they moved onto internal/durable. The
// journal is unversioned and the source of truth, so its line is held
// literally.
func TestSnapshotAndJournalGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		write      func() error
	}{
		{snapName(7), "sha256:093f098fcebb1c0eae1d0f0753e9a250063c692b41563edfc6d791aa966bd7b7", func() error {
			return (&snapshotter{dir: dir, fs: durable.OS{}}).save(7, 1234, []byte("policy state bytes"))
		}},
		{"journal.wal", `3d90776d {"seq":1,"slot":10,"admit":[{"name":"f","app":"a","user":"u","trigger":2}],"events":[[0,1],[3,2]]}` + "\n", func() error {
			j, _, err := openJournal(durable.OS{}, journalPath(dir))
			if err != nil {
				return err
			}
			defer j.Close()
			return j.append(&Batch{Seq: 1, Slot: 10,
				Admit:  []AdmitFunc{{Name: "f", App: "a", User: "u", Trigger: 2}},
				Events: []EventPair{{0, 1}, {3, 2}}})
		}},
	} {
		if err := tc.write(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, tc.name))
		if err != nil {
			t.Fatal(err)
		}
		got := string(data)
		if strings.HasPrefix(tc.want, "sha256:") {
			got = fmt.Sprintf("sha256:%x", sha256.Sum256(data))
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRestoreParentWrittenState restores a state directory written by the
// commit before the durable port — journal.wal plus two snapshot
// generations, copied while that daemon was live, i.e. what a SIGKILL leaves
// — and must land on the state hash that daemon reported: the newest
// snapshot decodes, the journaled tail behind it replays.
func TestRestoreParentWrittenState(t *testing.T) {
	const (
		wantHash = uint64(0xcf3e88168eae4c15)
		wantSlot = 200
		wantSeq  = uint64(200)
	)
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/parent-state/*")
	if err != nil || len(files) != 3 {
		t.Fatalf("fixture: %v, err %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	train, _ := testWorkload(t, 24, "")
	s, err := New(Config{Dir: dir, Policy: core.DefaultConfig(), Training: train, SnapshotEvery: 80})
	if err != nil {
		t.Fatalf("New over the parent-written directory: %v", err)
	}
	defer s.Close()
	hash, slot, seq, err := s.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if hash != wantHash || slot != wantSlot || seq != wantSeq {
		t.Fatalf("restored hash %016x slot %d seq %d, want %016x %d %d", hash, slot, seq, wantHash, wantSlot, wantSeq)
	}
	if m := s.MetricsSnapshot(); m.RestoredFromSeq != 160 || m.ReplayedRecords != 40 || m.SnapshotsRejected != 0 {
		t.Fatalf("restore took an unexpected path (want snapshot 160 + 40 replayed records): %+v", m)
	}
}

// TestNewSweepsOrphanedSnapshotTemps: a daemon killed mid-snapshot leaves
// its temp file behind; the next start reclaims stale ones and leaves fresh
// ones (possibly a live writer's) alone — the same durable.Sweep, and the
// same case, as the disk cache's and the trace store's
// (sim.TestOpenDiskCacheSweepsOrphanedTempFiles).
func TestNewSweepsOrphanedSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	stale, fresh := filepath.Join(dir, ".tmp-snap-dead123"), filepath.Join(dir, ".tmp-snap-live456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial snapshot bytes"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * durable.OrphanAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	train, _ := testWorkload(t, 24, "")
	s, err := New(Config{Dir: dir, Policy: core.DefaultConfig(), Training: train})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale snapshot temp not swept (stat err: %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh snapshot temp swept: %v", err)
	}
}

// TestRestoreFallsBackAcrossSnapshots kills the newest snapshot generation
// (torn write) and then every snapshot, expecting restore to downgrade to
// the older generation and to a full journal replay respectively — both
// ending on the undisturbed state hash.
func TestRestoreFallsBackAcrossSnapshots(t *testing.T) {
	train, simTr := testWorkload(t, 80, "")
	dir := t.TempDir()
	cfg := Config{Dir: dir, Policy: core.DefaultConfig(), Training: train, SnapshotEvery: 200}

	s, c := startServer(t, cfg)
	if _, err := Replay(c, simTr, LoadOptions{BatchSlots: 16, End: 900}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want, wantSlot, wantSeq, err := s.StateHash()
	if err != nil {
		t.Fatalf("StateHash: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snaps := (&snapshotter{dir: dir, fs: durable.OS{}}).list()
	if len(snaps) < 2 {
		t.Fatalf("expected >=2 retained snapshot generations, got %v", snaps)
	}
	// Tear the newest snapshot in half — the CRC must reject it.
	newest := filepath.Join(dir, snaps[0])
	data, _ := os.ReadFile(newest)
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (torn newest snapshot): %v", err)
	}
	got, gotSlot, gotSeq, err := s2.StateHash()
	if err != nil {
		t.Fatalf("StateHash after fallback restore: %v", err)
	}
	if got != want || gotSlot != wantSlot || gotSeq != wantSeq {
		t.Fatalf("fallback restore: hash %016x slot %d seq %d, want %016x %d %d",
			got, gotSlot, gotSeq, want, wantSlot, wantSeq)
	}
	if s2.c.snapshotsRejected.Load() == 0 {
		t.Fatal("snapshots_rejected stayed zero with a torn newest generation")
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close(s2): %v", err)
	}

	// No snapshots at all: the journal alone must rebuild the state.
	for _, name := range (&snapshotter{dir: dir, fs: durable.OS{}}).list() {
		os.Remove(filepath.Join(dir, name))
	}
	s3, err := New(cfg)
	if err != nil {
		t.Fatalf("New (no snapshots): %v", err)
	}
	defer s3.Close()
	got, gotSlot, gotSeq, err = s3.StateHash()
	if err != nil {
		t.Fatalf("StateHash after full replay: %v", err)
	}
	if got != want || gotSlot != wantSlot || gotSeq != wantSeq {
		t.Fatalf("full-replay restore: hash %016x slot %d seq %d, want %016x %d %d",
			got, gotSlot, gotSeq, want, wantSlot, wantSeq)
	}
	if s3.c.restoredFromSeq.Load() != 0 {
		t.Fatal("full replay claims it restored a snapshot")
	}
}

// TestServeUnderInjectedFaults replays with the serving fault classes
// active on both sides — dropped connections (pre- and post-apply) through
// the handler wrapper, slow client stalls through the transport, torn
// snapshot writes through the filesystem seam — and requires the completes ⇒
// bit-identical invariant: retries and dedup absorb every injected fault,
// and a restart afterwards restores across whatever the torn writes left.
// Every class must fire, so a seam left unwired fails here instead of
// turning the run clean.
func TestServeUnderInjectedFaults(t *testing.T) {
	train, simTr := testWorkload(t, 80, "")
	dir := t.TempDir()
	end := 700
	srvInj := faultinject.New(7, faultinject.ServeDefault())
	cfg := Config{
		Dir: dir, Policy: core.DefaultConfig(), Training: train,
		SnapshotEvery: 150,
		FS:            srvInj.FS(),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srvInj.Handler(s.Handler()))
	t.Cleanup(hs.Close)
	cliInj := faultinject.New(8, faultinject.ServeDefault())
	c := &Client{
		Base:  hs.URL,
		HTTP:  &http.Client{Transport: cliInj.Transport(nil)},
		Retry: retry.Policy{MaxAttempts: 20, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond},
	}

	rep, err := Replay(c, simTr, LoadOptions{BatchSlots: 4, End: end})
	if err != nil {
		t.Fatalf("Replay under faults: %v", err)
	}
	if rep.Retries == 0 {
		t.Fatalf("dropped connections should have forced retries: %+v (server faults: %s)", rep, srvInj)
	}
	want := mustHash(t, runRef(t, train, simTr, 0, end))
	got, _, wantSeq, err := s.StateHash()
	if err != nil {
		t.Fatalf("StateHash: %v", err)
	}
	if got != want {
		t.Fatalf("faulted replay state %016x != clean %016x (faults: %s / %s)",
			got, want, srvInj, cliInj)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	t.Logf("injected: server %s; client %s", srvInj, cliInj)
	for class, in := range map[string]*faultinject.Injector{"dropconn": srvInj, "tornsnap": srvInj, "slowclient": cliInj} {
		if in.Counts()[class] == 0 {
			t.Errorf("fault class %s never fired (server: %s; client: %s)", class, srvInj, cliInj)
		}
	}

	// Restart with the same fault seed: restore must reject any torn
	// generations and still land on the same state.
	cfg.FS = faultinject.New(7, faultinject.ServeDefault()).FS()
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after faulted run: %v", err)
	}
	defer s2.Close()
	got2, _, gotSeq, err := s2.StateHash()
	if err != nil {
		t.Fatalf("StateHash after restart: %v", err)
	}
	if got2 != want || gotSeq != wantSeq {
		t.Fatalf("restart after faulted run: hash %016x seq %d, want %016x %d",
			got2, gotSeq, want, wantSeq)
	}
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
