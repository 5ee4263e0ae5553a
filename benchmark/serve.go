package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const (
	serveFunctions = 1000
	serveDays      = 4 // two of them simulated: 2880 one-slot requests
	serveTrainDays = 2
	serveRetrain   = 480
	bulkSlots      = 16
)

// slotRef is what the reference driver decided for one slot; every reply is
// compared with it.
type slotRef struct {
	cold, flips []int64
	loaded      int
}

// served is the shared shape of the two serving workloads: a fresh daemon
// behind net/http on loopback per repetition, one client, one connection,
// closed loop — the protocol's contiguous seq makes the stream single-writer.
type served struct {
	env      *env
	cfg      core.Config
	train    *trace.Trace
	simTr    *trace.Trace
	perReq   int             // occupied slots per request
	requests [][]serve.Batch // the replay, built once in set-up
	events   int64
	restart  bool // close and restore after the replay (serve-bulk)

	refs     map[int]slotRef // reference decisions by slot
	refHash  uint64          // reference policy state after the replay
	refQ3    float64
	refWMT   int64
	invoked  []int64 // invoked slots per function, for the CSR from replies
	floorSec float64 // the reference driver's apply time
	nextDir  int
}

func setupServeSlot(e *env) (workload, error) { return setupServe(e, 1, false) }
func setupServeBulk(e *env) (workload, error) { return setupServe(e, bulkSlots, true) }

func setupServe(e *env, perReq int, restart bool) (workload, error) {
	s := experiments.Settings{Functions: serveFunctions, Days: serveDays, TrainDays: serveTrainDays, SPES: core.DefaultConfig()}
	// Two flash crowds inside the simulation window, placed as the library's
	// flashcrowd scenario places them: for 45 minutes every function fires
	// in every slot, so those requests carry the whole population and the
	// latency tail is theirs.
	simStart, simLen := serveTrainDays*1440, (serveDays-serveTrainDays)*1440
	var crowds []trace.Phase
	for _, at := range []int{simStart + simLen/4, simStart + 2*simLen/3} {
		crowds = append(crowds, trace.Phase{Kind: trace.PhaseFlashCrowd, Start: at, End: at + 45, Fraction: 1, Amplitude: 3})
	}
	seedScenario(&s, e.seed, crowds...)
	_, train, simTr, err := generate(e, s)
	if err != nil {
		return nil, err
	}
	w := &served{env: e, cfg: s.SPES, train: train, simTr: simTr, perReq: perReq, restart: restart, refs: map[int]slotRef{}}

	// The replay: one batch per occupied slot, perReq batches per request.
	idx := simTr.BuildSlotIndex()
	w.invoked = make([]int64, simTr.NumFunctions())
	var pending []serve.Batch
	for slot, invs := range idx.Invocations {
		if len(invs) == 0 {
			continue
		}
		events := make([]serve.EventPair, len(invs))
		for i, fc := range invs {
			events[i] = serve.EventPair{int64(fc.Func), int64(fc.Count)}
			w.invoked[fc.Func]++
		}
		w.events += int64(len(invs))
		pending = append(pending, serve.Batch{Slot: slot, Events: events})
		if len(pending) == perReq {
			w.requests = append(w.requests, pending)
			pending = nil
		}
	}
	if len(pending) > 0 {
		w.requests = append(w.requests, pending)
	}

	// The reference: the same slots through a bare sim.Driver configured as
	// the daemon configures its own, off the timed path. Its apply time is
	// also the floor no serving layer can go below.
	p := core.New(s.SPES)
	p.Train(train)
	d := sim.NewDriver(p, simTr.NumFunctions(), sim.DriverConfig{
		CollectCold:   true,
		RetrainEvery:  serveRetrain,
		RetrainWindow: train.Slots,
		Window:        func(t, win int) *trace.Trace { return sim.BuildRetrainWindow(train, simTr, t, win) },
	})
	t0 := time.Now()
	for slot, invs := range idx.Invocations {
		if len(invs) == 0 {
			continue
		}
		info, err := d.Step(slot, invs)
		if err != nil {
			return nil, err
		}
		w.refs[slot] = slotRef{cold: ids(info.Cold), flips: ids(info.Flips), loaded: info.Loaded}
	}
	w.floorSec = time.Since(t0).Seconds()
	if w.refHash, err = p.StateHash(); err != nil {
		return nil, err
	}
	res := d.Close(simTr.Slots)
	w.refQ3, w.refWMT = res.QuantileCSR(0.75), res.TotalWMT
	if e.corrupt {
		w.refHash ^= 1
	}
	return w, nil
}

func ids(fs []trace.FuncID) []int64 {
	if len(fs) == 0 {
		return nil
	}
	out := make([]int64, len(fs))
	for i, f := range fs {
		out[i] = int64(f)
	}
	return out
}

// daemon is a serving daemon with its loopback listener and client.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	done   chan error
	client *serve.Client
	dir    string
}

func (w *served) config(dir string) serve.Config {
	return serve.Config{Dir: dir, Policy: w.cfg, Training: w.train, RetrainEvery: serveRetrain, SnapshotEvery: serveRetrain}
}

func (w *served) newDir() string {
	w.nextDir++
	return filepath.Join(w.env.dir, fmt.Sprintf("state%d", w.nextDir))
}

// start brings up a fresh daemon on a loopback port.
func (w *served) start() (*daemon, error) {
	dir := w.newDir()
	srv, err := serve.New(w.config(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1), dir: dir}
	go func() { d.done <- d.http.Serve(ln) }()
	d.client = &serve.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	return d, nil
}

// stopHTTP closes the listener and the client's connection and waits for the
// serving goroutine to end. A second call does nothing.
func (d *daemon) stopHTTP() {
	if d.http == nil {
		return
	}
	d.client.HTTP.CloseIdleConnections()
	d.http.Close()
	<-d.done
	d.http = nil
}

// close stops the listener, then the daemon. A second call does nothing.
func (d *daemon) close() error {
	d.stopHTTP()
	if d.srv == nil {
		return nil
	}
	err := d.srv.Close()
	d.srv = nil
	return err
}

func (w *served) rep(op int, tr *tracer) (*repOut, error) {
	out := newRepOut()
	d, err := w.start()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d.dir)
	defer d.close()

	cold := make([]int64, len(w.invoked))
	latencies := make([]float64, 0, len(w.requests))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mark := tr.mark()
	root := tr.begin("harness.rep", -1, op)
	t0 := time.Now()
	for _, req := range w.requests {
		id := tr.begin("serve.http.roundtrip", root, op)
		t1 := time.Now()
		replies, err := d.client.Send(req)
		latencies = append(latencies, time.Since(t1).Seconds()*1e3)
		tr.end(id)
		out.attempted++
		if err != nil {
			out.fail("%s: request at slot %d: %v", w.env.workload, req[0].Slot, err)
			return out, nil
		}
		// A request fails once, however many of its replies are off.
		problem := ""
		for _, r := range replies {
			ref := w.refs[r.Slot]
			switch {
			case !r.Applied || r.Duplicate || r.Degraded:
				problem = fmt.Sprintf("slot %d answered applied=%v duplicate=%v degraded=%v", r.Slot, r.Applied, r.Duplicate, r.Degraded)
			case r.Loaded != ref.loaded || !reflect.DeepEqual(r.Cold, ref.cold) || !reflect.DeepEqual(r.Flips, ref.flips):
				problem = fmt.Sprintf("slot %d decision differs from the reference driver's", r.Slot)
			}
			for _, f := range r.Cold {
				cold[f]++
			}
		}
		if problem != "" {
			out.fail("%s: %s", w.env.workload, problem)
		}
	}
	replay := time.Since(t0).Seconds()
	out.sample["events_per_s"] = float64(w.events) / replay

	// The final state is one more operation: the policy state, the quality
	// of the decisions served and the daemon's overload counters.
	hash, _, _, err := d.srv.StateHash()
	if err != nil {
		return nil, err
	}
	met := d.srv.MetricsSnapshot()
	csr := &sim.Result{PerFunc: make([]sim.FuncMetrics, len(cold))}
	var totalCold int64
	for f := range cold {
		csr.PerFunc[f] = sim.FuncMetrics{InvokedSlot: w.invoked[f], ColdStarts: cold[f]}
		totalCold += cold[f]
	}
	q3 := csr.QuantileCSR(0.75)
	out.attempted++
	switch {
	case hash != w.refHash:
		out.fail("%s: daemon state hash %016x differs from the reference %016x", w.env.workload, hash, w.refHash)
	case q3 != w.refQ3:
		out.fail("%s: Q3 cold-start rate %v from the replies differs from the reference %v", w.env.workload, q3, w.refQ3)
	case met.ShedQueue+met.ShedDecision+met.Duplicates+met.Rejected+d.client.Retries() != 0:
		out.fail("%s: daemon shed, rejected or saw a retry: %+v", w.env.workload, met)
	}
	journal, snaps := stateDirSizes(d.dir)

	d.stopHTTP()
	if w.restart {
		// Graceful close, then restore from what the replay left behind.
		if err := d.close(); err != nil {
			return nil, err
		}
		id := tr.begin("serve.restore", root, op)
		t1 := time.Now()
		restored, err := serve.New(w.config(d.dir))
		out.sample["restore_s"] = time.Since(t1).Seconds()
		tr.end(id)
		out.attempted++
		if err != nil {
			out.fail("%s: restore: %v", w.env.workload, err)
			return out, nil
		}
		rhash, _, _, herr := restored.StateHash()
		rmet := restored.MetricsSnapshot()
		if err := restored.Close(); err != nil {
			return nil, err
		}
		if herr != nil || rhash != w.refHash {
			out.fail("%s: restored state hash %016x differs from the reference %016x (%v)", w.env.workload, rhash, w.refHash, herr)
		}
		out.layer["serve.restore.replayed_records"] = float64(rmet.ReplayedRecords)
		out.layer["serve.restore.snapshots_rejected"] = float64(rmet.SnapshotsRejected)
		out.layer["serve.restore.from_seq"] = float64(rmet.RestoredFromSeq)
		out.counts["restore_replayed_records"] = rmet.ReplayedRecords
	}
	out.sample["run_s"] = time.Since(t0).Seconds()
	rootSpan := tr.end(root)
	runtime.ReadMemStats(&m1)
	if out.failed > 0 {
		return out, nil
	}

	out.sample["alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	if w.perReq == 1 {
		if q := tailQuantile(len(latencies)); q < 0.99 {
			return nil, fmt.Errorf("%d requests support no percentile beyond p%g", len(latencies), q*100)
		}
		out.sample["decision_p50_ms"] = percentile(latencies, 0.50)
		out.sample["decision_p99_ms"] = percentile(latencies, 0.99)
	}
	out.layer["serve.stall_max_ms"] = percentile(latencies, 1)
	out.layer["serve.http.roundtrip_s"] = stats.Sum(latencies) / 1e3

	// Quality of the decisions served: the cold-start rates come from the
	// replies' cold lists; the wasted memory minutes are the reference
	// driver's, whose every per-slot decision the replies were held to.
	out.exact["q3_csr"] = q3
	out.exact["global_csr"] = float64(totalCold) / float64(w.events)
	out.exact["wmt_minutes"] = float64(w.refWMT)

	out.counts["events"] = w.events
	out.counts["slots"] = int64(w.simTr.Slots)
	out.counts["requests"] = int64(len(w.requests))
	out.counts["cold_starts"] = totalCold
	out.counts["wmt_minutes"] = w.refWMT
	out.counts["journal_bytes"] = journal
	out.counts["snapshots"] = met.Snapshots
	out.layer["serve.journal.bytes"] = float64(journal)
	out.layer["serve.journal.bytes_per_event"] = float64(journal) / float64(w.events)
	out.layer["serve.snapshot.count"] = float64(met.Snapshots)
	out.layer["serve.snapshot.bytes"] = float64(snaps)
	out.layer["serve.shed_queue"] = float64(met.ShedQueue)
	out.layer["serve.shed_decision"] = float64(met.ShedDecision)
	out.layer["serve.duplicates"] = float64(met.Duplicates)
	out.layer["serve.rejected"] = float64(met.Rejected)
	out.layer["serve.retries"] = float64(d.client.Retries())
	if tr != nil {
		selfLayers(out, tr.since(mark), rootSpan)
	}
	return out, nil
}

// stateDirSizes returns the size of the journal and of all snapshot files.
func stateDirSizes(dir string) (journal, snapshots int64) {
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(ent.Name(), ".wal"):
			journal += info.Size()
		case strings.HasSuffix(ent.Name(), ".snap"):
			snapshots += info.Size()
		}
	}
	return journal, snapshots
}

// layers measures the serving layers one at a time: the client's encoding,
// the handler without a socket, and a forced snapshot.
func (w *served) layers(c *layerCtx) error {
	probeCategorize(w.train, w.cfg, c.m)
	c.m["classify.window_build_s"] = probeWindows(w.train, w.simTr, serveRetrain)
	c.m["serve.apply_floor_s"] = w.floorSec

	// Encode the requests as the client does, with the sequence numbers a
	// fresh client would assign.
	payloads := make([][]byte, len(w.requests))
	var seq uint64
	var bytesOut int64
	t0 := time.Now()
	for i, req := range w.requests {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for j := range req {
			seq++
			req[j].Seq = seq
			if err := enc.Encode(&req[j]); err != nil {
				return err
			}
		}
		payloads[i] = buf.Bytes()
		bytesOut += int64(buf.Len())
	}
	c.m["serve.client.encode_s"] = time.Since(t0).Seconds()
	c.m["serve.request_bytes"] = float64(bytesOut)
	c.counts["request_bytes"] = bytesOut

	// The same payloads into the handler of a fresh daemon, no socket.
	dir := w.newDir()
	defer os.RemoveAll(dir)
	srv, err := serve.New(w.config(dir))
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	t0 = time.Now()
	for _, body := range payloads {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("direct handler returned %d: %s", rec.Code, rec.Body.String())
		}
	}
	direct := time.Since(t0).Seconds()
	hash, _, _, err := srv.StateHash()
	if err != nil {
		return err
	}
	if hash != w.refHash {
		return fmt.Errorf("direct handler state hash %016x differs from the reference %016x", hash, w.refHash)
	}
	t0 = time.Now()
	if err := srv.Snapshot(); err != nil {
		return err
	}
	c.m["serve.snapshot_s"] = time.Since(t0).Seconds()

	roundtrip := c.m["serve.http.roundtrip_s"]
	c.m["serve.handler.direct_s"] = direct
	c.m["serve.transport_s"] = roundtrip - direct
	c.m["serve.overhead_s"] = direct - w.floorSec
	return nil
}
