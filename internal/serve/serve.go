package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Dir is the daemon's state directory (journal + snapshots). Required.
	Dir string

	// Policy is the SPES configuration; Training the offline history the
	// policy trains on when no snapshot is restorable. Training also seeds
	// the function population and the retrain windows' pre-stream history,
	// so it must be identical across restarts (it is regenerated from the
	// same workload settings, not persisted).
	Policy   core.Config
	Training *trace.Trace

	// RetrainEvery enables online re-categorization every that many slots
	// (0 disables), over windows of the training length.
	RetrainEvery int

	// SnapshotEvery takes a state snapshot each time that many slots have
	// been applied since the last one (0 defaults to 1440; negative
	// disables automatic snapshots).
	SnapshotEvery int

	// Overload protection: QueueDepth bounds the ingest queue (default 64
	// requests); a request that cannot enqueue within EnqueueTimeout
	// (default 1s) is shed with 503 — backpressure, the client retries; a
	// request whose batches are not applied within DecisionTimeout (default
	// 2s) gets degraded fixed-keepalive replies advertising
	// FallbackKeepAlive slots (default 10) while the apply still completes
	// in order.
	QueueDepth        int
	EnqueueTimeout    time.Duration
	DecisionTimeout   time.Duration
	FallbackKeepAlive int

	// FS is the filesystem seam under the journal and the snapshots (nil:
	// the real filesystem).
	FS durable.FS
}

func (c *Config) fill() {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1440
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.EnqueueTimeout == 0 {
		c.EnqueueTimeout = time.Second
	}
	if c.DecisionTimeout == 0 {
		c.DecisionTimeout = 2 * time.Second
	}
	if c.FallbackKeepAlive <= 0 {
		c.FallbackKeepAlive = 10
	}
	if c.FS == nil {
		c.FS = durable.OS{}
	}
}

// Metrics is the counter snapshot GET /v1/metrics returns.
type Metrics struct {
	IngestRequests int64 `json:"ingest_requests"`
	AppliedBatches int64 `json:"applied_batches"`
	AppliedEvents  int64 `json:"applied_events"`
	Duplicates     int64 `json:"duplicates"`
	Rejected       int64 `json:"rejected"`
	Admitted       int64 `json:"admitted"`

	ShedQueue       int64 `json:"shed_queue"`    // requests refused with 503 (queue full)
	ShedDecision    int64 `json:"shed_decision"` // requests answered with degraded fallback replies
	DegradedReplies int64 `json:"degraded_replies"`

	Snapshots         int64 `json:"snapshots"`
	SnapshotFailures  int64 `json:"snapshot_failures"`
	SnapshotsRejected int64 `json:"snapshots_rejected"` // generations rejected during restore
	ReplayedRecords   int64 `json:"replayed_records"`   // journal records replayed at startup
	RestoredFromSeq   int64 `json:"restored_from_seq"`  // snapshot seq the restore started from (0: full replay)

	QueueDepth int    `json:"queue_depth"`
	NextSlot   int    `json:"next_slot"`
	LastSeq    uint64 `json:"last_seq"`
	Functions  int    `json:"functions"`
	Loaded     int    `json:"loaded"`
	WheelDepth int    `json:"wheel_depth"` // pending deadlines: functions with an outstanding wake-up
}

type counters struct {
	ingestRequests, appliedBatches, appliedEvents, duplicates, rejected, admitted,
	shedQueue, shedDecision, degradedReplies,
	snapshots, snapshotFailures, snapshotsRejected, replayedRecords, restoredFromSeq atomic.Int64
}

// ingest is one queued request together with the scratch that serves it: the
// handler decodes the body into batches, the apply loop answers into replies
// and signals done (buffered, so a deadline-abandoned request never blocks
// the apply loop), the handler encodes replies into out.
//
// Ownership: the handler owns an ingest until it enqueues it and again once
// it has received from done; in between it is the apply loop's. A handler
// that gives up at the decision deadline therefore never touches the scratch
// again and never releases it — the apply loop is still reading batches and
// writing replies — and the garbage collector reclaims it.
type ingest struct {
	batches []Batch
	replies []Reply
	done    chan struct{}

	line   []byte      // the body scanner's buffer
	events []EventPair // backs every batches[i].Events
	ids    []int64     // backs every replies[i].Cold and .Flips
	out    []byte      // the reply lines
}

// What a released scratch slice may pin in the pool: a request with an
// oversized line grows its slices for itself and the pool forgets them.
const (
	maxPooledBytes = 64 << 10 // also the body scanner's initial buffer
	maxPooledElems = 4 << 10  // 64 KB of event pairs
)

var ingestPool = sync.Pool{New: func() any {
	return &ingest{done: make(chan struct{}, 1), line: make([]byte, maxPooledBytes)}
}}

// release returns req to the pool. Only its exclusive owner may call it.
func (req *ingest) release() {
	clear(req.batches) // admissions and rejections hold strings
	clear(req.replies)
	req.batches = keep(req.batches, maxPooledElems)
	req.replies = keep(req.replies, maxPooledElems)
	req.events = keep(req.events, maxPooledElems)
	req.ids = keep(req.ids, maxPooledElems)
	req.out = keep(req.out, maxPooledBytes)
	ingestPool.Put(req)
}

// keep empties a scratch slice for reuse, or drops one grown past max.
func keep[T any](buf []T, max int) []T {
	if cap(buf) > max {
		return nil
	}
	return buf[:0]
}

// Server is the serving daemon: a single apply goroutine owns the order of
// state mutation (journal append -> policy step -> reply), handlers only
// parse, enqueue, and wait. mu guards the policy/driver/history/journal
// cluster for the apply loop and the read-only endpoints.
type Server struct {
	cfg Config

	mu       sync.Mutex
	policy   *core.SPES
	driver   *sim.Driver
	history  *trace.Trace // the function population and its recorded live events
	journal  *journal
	snaps    *snapshotter
	lastSeq  uint64
	snapSlot int // NextSlot at the last snapshot
	fcBuf    []trace.FuncCount

	queue chan *ingest
	stop  chan struct{}
	done  chan struct{}

	c counters
}

// New recovers (or initializes) the daemon state under cfg.Dir and starts
// the apply loop. Restore order: heal + load the journal, restore the
// newest valid snapshot the journal covers (otherwise train fresh), rebuild
// the recorded history from the FULL journal, and re-apply the records
// after the snapshot through the driver — ending bit-identical to a daemon
// that never stopped.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if cfg.Training == nil {
		return nil, fmt.Errorf("serve: Config.Training is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		snaps: &snapshotter{dir: cfg.Dir, fs: cfg.FS},
		queue: make(chan *ingest, cfg.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}

	// A daemon killed mid-snapshot (which the crash tests do on purpose)
	// leaves its temp file behind; reclaim old ones on the way back up.
	durable.Sweep(cfg.FS, cfg.Dir, snapTmpPattern)

	jl, records, err := openJournal(cfg.FS, journalPath(cfg.Dir))
	if err != nil {
		return nil, err
	}
	s.journal = jl
	var maxSeq uint64
	if n := len(records); n > 0 {
		maxSeq = records[n-1].Seq
	}

	// The population starts as the training one; clipped, so the first
	// admission copies it rather than writing into the caller's array.
	n := cfg.Training.NumFunctions()
	s.history = &trace.Trace{Functions: slices.Clip(cfg.Training.Functions), Series: make([]trace.Series, n, n+16)}

	snapSeq, startSlot, state, rejected, restored := s.snaps.load(maxSeq)
	s.c.snapshotsRejected.Store(int64(rejected))
	s.policy = core.New(cfg.Policy)
	if restored {
		if err := s.policy.RestoreState(state); err != nil {
			// The checksum passed but the policy rejected the payload (e.g.
			// a config change across restarts): fall back to a full replay.
			s.policy = core.New(cfg.Policy)
			s.policy.Train(cfg.Training)
			snapSeq, startSlot, restored = 0, 0, false
			s.c.snapshotsRejected.Add(1)
		} else {
			s.c.restoredFromSeq.Store(int64(snapSeq))
		}
	}
	if !restored {
		s.policy.Train(cfg.Training)
	}

	// Phase 1 of replay: records the snapshot already covers only rebuild
	// the recorded history (and the function population, which the snapshot
	// also carries — admission order is the ID order, so they must agree).
	// The journal only holds records that passed validation, so a failure
	// here means the state directory is inconsistent, not that input was bad.
	i := 0
	for ; i < len(records) && records[i].Seq <= snapSeq; i++ {
		if _, err := s.record(&records[i], false); err != nil {
			return nil, err
		}
		s.lastSeq = records[i].Seq
	}
	if got, want := len(s.history.Functions), s.policy.NumFunctions(); got != want {
		return nil, fmt.Errorf("serve: snapshot carries %d functions but journal admits %d by seq %d", want, got, snapSeq)
	}

	dcfg := sim.DriverConfig{CollectCold: true, StartSlot: startSlot}
	if cfg.RetrainEvery > 0 {
		dcfg.RetrainEvery = cfg.RetrainEvery
		dcfg.RetrainWindow = cfg.Training.Slots
		// The window is a view of the training trace and the recorded
		// history. Only the driver calls Window — from replay here, then
		// from the apply loop — and record appends to the history only
		// outside Step: the slot's events before it, at the slot the window
		// ends before, and the next batch's after Retrain has returned.
		dcfg.Window = func(t, w int) *trace.Trace {
			return sim.BuildRetrainWindow(cfg.Training, s.history, t, w)
		}
	}
	s.driver = sim.NewDriver(s.policy, s.policy.NumFunctions(), dcfg)
	s.snapSlot = startSlot

	// Phase 2: re-apply the journaled tail through the driver.
	for ; i < len(records); i++ {
		if _, err := s.record(&records[i], true); err != nil {
			return nil, err
		}
		s.lastSeq = records[i].Seq
		s.c.replayedRecords.Add(1)
	}

	go s.applyLoop()
	return s, nil
}

// record applies one accepted batch: its admissions join the population,
// its events the recorded history, and, when step is set, the policy admits
// the functions and the driver steps the slot. Live apply runs it after
// validation and the journal, and replay runs it on every journal record
// (without step for those a restored snapshot covers), so a replayed record
// changes exactly what the live one did.
func (s *Server) record(b *Batch, step bool) (sim.StepInfo, error) {
	for _, af := range b.Admit {
		fid := trace.FuncID(len(s.history.Functions))
		f := trace.Function{ID: fid, Name: af.Name, App: af.App, User: af.User, Trigger: trace.Trigger(af.Trigger)}
		s.history.Functions = append(s.history.Functions, f)
		s.history.Series = append(s.history.Series, nil)
		if step {
			if got := s.policy.Admit(f); got != fid {
				return sim.StepInfo{}, fmt.Errorf("serve: seq %d: policy admitted function %d as %d", b.Seq, fid, got)
			}
			s.driver.Grow(s.policy.NumFunctions())
		}
	}
	for _, ev := range b.Events {
		if ev[0] < 0 || ev[0] >= int64(len(s.history.Series)) {
			return sim.StepInfo{}, fmt.Errorf("serve: seq %d references function %d of %d", b.Seq, ev[0], len(s.history.Series))
		}
		s.history.Series[ev[0]] = append(s.history.Series[ev[0]],
			trace.Event{Slot: int32(b.Slot), Count: int32(ev[1])})
	}
	if b.Slot+1 > s.history.Slots {
		s.history.Slots = b.Slot + 1
	}
	if !step {
		return sim.StepInfo{}, nil
	}
	s.fcBuf = toFuncCounts(b.Events, s.fcBuf)
	info, err := s.driver.Step(b.Slot, s.fcBuf)
	if err != nil {
		return info, fmt.Errorf("serve: seq %d: %w", b.Seq, err)
	}
	return info, nil
}

// applyLoop is the single consumer of the ingest queue. On stop it drains
// what is already queued (those clients may still be parked on their
// decision deadline) and exits.
func (s *Server) applyLoop() {
	defer close(s.done)
	for {
		select {
		case req := <-s.queue:
			s.apply(req)
		case <-s.stop:
			for {
				select {
				case req := <-s.queue:
					s.apply(req)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) apply(req *ingest) {
	s.mu.Lock()
	for i := range req.batches {
		var r Reply
		r, req.ids = s.applyLocked(&req.batches[i], req.ids)
		req.replies = append(req.replies, r)
	}
	s.maybeSnapshotLocked(false)
	s.mu.Unlock()
	req.done <- struct{}{} // hands req back to its handler: no use after this
}

// applyLocked runs one batch through the full accept path: validate
// everything, journal, then mutate — in that order, so every journaled
// record is guaranteed to re-apply cleanly and every state mutation is
// journaled (SIGKILL-safe, not fsynced) before it is acknowledged.
// Decisions (cold/flips) are only ever emitted from a fully-applied batch;
// their lists are cut from ids, whose grown value is returned.
func (s *Server) applyLocked(b *Batch, ids []int64) (Reply, []int64) {
	if b.Seq <= s.lastSeq {
		s.c.duplicates.Add(1)
		return Reply{Seq: b.Seq, Slot: b.Slot, Duplicate: true, Loaded: s.policy.LoadedCount()}, ids
	}
	if b.Seq != s.lastSeq+1 {
		return s.reject(b, "seq gap: got %d, want %d", b.Seq, s.lastSeq+1), ids
	}
	if next := s.driver.NextSlot(); b.Slot < next {
		return s.reject(b, "stale slot %d: stream is at %d", b.Slot, next), ids
	}
	if b.Slot >= math.MaxInt32 {
		return s.reject(b, "slot %d out of range", b.Slot), ids
	}
	n := int64(len(s.history.Functions) + len(b.Admit))
	prev := int64(-1)
	for _, ev := range b.Events {
		fid, cnt := ev[0], ev[1]
		if fid <= prev || fid >= n {
			return s.reject(b, "events must be FuncID-ascending within [0, %d): got %d after %d", n, fid, prev), ids
		}
		if cnt <= 0 || cnt > math.MaxInt32 {
			return s.reject(b, "function %d: count %d out of range", fid, cnt), ids
		}
		prev = fid
	}

	if err := s.journal.append(b); err != nil {
		return s.reject(b, "%v", err), ids
	}

	first := len(s.history.Functions)
	info, err := s.record(b, true)
	if err != nil {
		// Unreachable after validation; surfacing it beats guessing.
		return s.reject(b, "apply: %v", err), ids
	}
	var admitted []int64
	for k := range b.Admit {
		admitted = append(admitted, int64(first+k))
	}
	s.lastSeq = b.Seq
	s.c.admitted.Add(int64(len(b.Admit)))
	s.c.appliedBatches.Add(1)
	s.c.appliedEvents.Add(int64(len(b.Events)))

	r := Reply{Seq: b.Seq, Slot: b.Slot, Applied: true, Admitted: admitted, Loaded: info.Loaded}
	r.Cold, ids = cutIDs(ids, info.Cold)
	r.Flips, ids = cutIDs(ids, info.Flips)
	return r, ids
}

// reject counts and answers a batch that failed validation (or the journal).
func (s *Server) reject(b *Batch, format string, args ...any) Reply {
	s.c.rejected.Add(1)
	return Reply{Seq: b.Seq, Slot: b.Slot, Loaded: s.policy.LoadedCount(),
		Error: fmt.Sprintf(format, args...)}
}

// cutIDs appends fs to ids and returns them as a list cut from it, capacity
// clipped; no functions is the nil list.
func cutIDs(ids []int64, fs []trace.FuncID) (list, grown []int64) {
	if len(fs) == 0 {
		return nil, ids
	}
	start := len(ids)
	for _, f := range fs {
		ids = append(ids, int64(f))
	}
	return ids[start:len(ids):len(ids)], ids
}

// maybeSnapshotLocked snapshots when enough slots have been applied since
// the last one (or unconditionally under force). Snapshot failures are
// counted and tolerated: the journal alone still recovers the state.
func (s *Server) maybeSnapshotLocked(force bool) error {
	if s.cfg.SnapshotEvery < 0 && !force {
		return nil
	}
	next := s.driver.NextSlot()
	if !force && next-s.snapSlot < s.cfg.SnapshotEvery {
		return nil
	}
	if !force && next == s.snapSlot {
		return nil
	}
	state, err := s.policy.EncodeState()
	if err == nil {
		err = s.snaps.save(s.lastSeq, next, state)
	}
	if err != nil {
		s.c.snapshotFailures.Add(1)
		return err
	}
	s.snapSlot = next
	s.c.snapshots.Add(1)
	return nil
}

// Snapshot forces a state snapshot at the current stream position.
func (s *Server) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maybeSnapshotLocked(true)
}

// StateHash returns the policy's canonical state hash and the stream
// position it covers.
func (s *Server) StateHash() (hash uint64, nextSlot int, seq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, err := s.policy.StateHash()
	return h, s.driver.NextSlot(), s.lastSeq, err
}

// MetricsSnapshot assembles the current counters and gauges.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	next := s.driver.NextSlot()
	seq := s.lastSeq
	funcs := s.policy.NumFunctions()
	loaded := s.policy.LoadedCount()
	wheel := s.policy.WheelDepth()
	s.mu.Unlock()
	return Metrics{
		IngestRequests:    s.c.ingestRequests.Load(),
		AppliedBatches:    s.c.appliedBatches.Load(),
		AppliedEvents:     s.c.appliedEvents.Load(),
		Duplicates:        s.c.duplicates.Load(),
		Rejected:          s.c.rejected.Load(),
		Admitted:          s.c.admitted.Load(),
		ShedQueue:         s.c.shedQueue.Load(),
		ShedDecision:      s.c.shedDecision.Load(),
		DegradedReplies:   s.c.degradedReplies.Load(),
		Snapshots:         s.c.snapshots.Load(),
		SnapshotFailures:  s.c.snapshotFailures.Load(),
		SnapshotsRejected: s.c.snapshotsRejected.Load(),
		ReplayedRecords:   s.c.replayedRecords.Load(),
		RestoredFromSeq:   s.c.restoredFromSeq.Load(),
		QueueDepth:        len(s.queue),
		NextSlot:          next,
		LastSeq:           seq,
		Functions:         funcs,
		Loaded:            loaded,
		WheelDepth:        wheel,
	}
}

// Close stops the apply loop (draining what is queued), takes a final
// snapshot, and closes the journal.
func (s *Server) Close() error {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	serr := s.maybeSnapshotLocked(true)
	jerr := s.journal.Close()
	if serr != nil {
		return serr
	}
	return jerr
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/events    NDJSON Batch lines in, NDJSON Reply lines out
//	GET  /v1/statehash canonical policy state hash + stream position
//	GET  /v1/metrics   counter snapshot
//	POST /v1/snapshot  force a state snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/statehash", s.handleStateHash)
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.MetricsSnapshot())
	})
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		if err := s.Snapshot(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	})
	return mux
}

// maxBatchLine bounds one NDJSON request line (1 MiB of events per slot).
const maxBatchLine = 1 << 20

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.c.ingestRequests.Add(1)
	req := ingestPool.Get().(*ingest)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(req.line, maxBatchLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Decoded in place: a local Batch would escape through the codec's
		// encoding/json fallback and cost an allocation per line.
		req.batches = append(req.batches, Batch{})
		var err error
		req.events, err = decodeBatch(line, &req.batches[len(req.batches)-1], req.events)
		if err != nil {
			req.release()
			http.Error(w, fmt.Sprintf("bad batch line: %v", err), http.StatusBadRequest)
			return
		}
	}
	if err := sc.Err(); err != nil {
		req.release()
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.batches) == 0 {
		req.release()
		http.Error(w, "no batches", http.StatusBadRequest)
		return
	}

	select {
	case s.queue <- req:
	default:
		// Queue full: wait out the backpressure budget, then shed the
		// REQUEST (never applied — the client's retry re-delivers it).
		t := time.NewTimer(s.cfg.EnqueueTimeout)
		select {
		case s.queue <- req:
			t.Stop()
		case <-t.C:
			s.c.shedQueue.Add(1)
			req.release() // it never entered the queue
			http.Error(w, "ingest queue full", http.StatusServiceUnavailable)
			return
		}
	}

	var out []byte
	t := time.NewTimer(s.cfg.DecisionTimeout)
	select {
	case <-req.done:
		t.Stop()
		defer req.release() // once out is written, or the connection dropped
		for i := range req.replies {
			req.out = append(appendReply(req.out, &req.replies[i]), '\n')
		}
		out = req.out
	case <-t.C:
		// Decision deadline passed: shed the DECISION, not the state. The
		// apply loop still runs this request in order — and keeps req, so
		// from here on only batches may be read, and nothing of req reused
		// — and the client is told to fall back to fixed keep-alive until
		// fresher decisions arrive.
		s.c.shedDecision.Add(1)
		for i := range req.batches {
			b := &req.batches[i]
			out = append(appendReply(out, &Reply{Seq: b.Seq, Slot: b.Slot, Degraded: true,
				Policy: "fixed-keepalive", Keepalive: s.cfg.FallbackKeepAlive}), '\n')
			s.c.degradedReplies.Add(1)
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(out)
}

func (s *Server) handleStateHash(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h, err := s.policy.StateHash()
	slot, seq, funcs := s.driver.NextSlot(), s.lastSeq, s.policy.NumFunctions()
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, StateHashReply{
		StateHash: fmt.Sprintf("%016x", h),
		Slot:      slot,
		Seq:       seq,
		Functions: funcs,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
