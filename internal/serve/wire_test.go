package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
)

// The four fuzz targets hold the wire codec to encoding/json, which it
// replaced on the hot path: the decoders must agree with json.Unmarshal on
// every input — same verdict, same error text, same value, nil and empty
// slices told apart — and the appenders with json.Marshal byte for byte. The
// seed corpus under testdata/fuzz runs with the ordinary tests.

func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var want, got Batch
		wantErr := json.Unmarshal(line, &want)
		got = Batch{Seq: 99, Events: []EventPair{{9, 9}}} // must be overwritten
		arena, gotErr := decodeBatch(line, &got, []EventPair{{7, 7}})
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeBatch(%q) = %+v, %v; encoding/json says %+v, %v", line, got, gotErr, want, wantErr)
		}
		if arena[0] != (EventPair{7, 7}) {
			t.Fatalf("decodeBatch(%q) wrote over the arena's earlier events: %v", line, arena[0])
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var want, got Reply
		wantErr := json.Unmarshal(line, &want)
		got = Reply{Seq: 99, Cold: []int64{9}, Error: "stale"} // must be overwritten
		arena, gotErr := decodeReply(line, &got, []int64{7})
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeReply(%q) = %+v, %v; encoding/json says %+v, %v", line, got, gotErr, want, wantErr)
		}
		if arena[0] != 7 {
			t.Fatalf("decodeReply(%q) wrote over the arena's earlier lists: %v", line, arena[0])
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// wireStrings are the string cases encoding/json escapes or rewrites.
var wireStrings = []string{"f", "", `q"uo\te`, "ctl\x00\x1f\n\t", "<a>&b", "sep  ", "bad\xff\xfeutf8", "héllo ✓"}

func FuzzAppendBatch(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(uint64(i), int64(i)-1, s, "app", s, uint8(i), uint8(i), pairBytes(0, 1, 3, 2), false)
	}
	f.Add(uint64(math.MaxUint64), int64(math.MaxInt64), "f", "a", "u", uint8(255), uint8(1), pairBytes(math.MinInt64, math.MaxInt64), false)
	f.Add(uint64(0), int64(math.MinInt64), "", "", "", uint8(0), uint8(0), []byte{}, true)
	f.Add(uint64(1), int64(10), "", "", "", uint8(0), uint8(0), []byte{}, false)
	f.Fuzz(func(t *testing.T, seq uint64, slot int64, name, app, user string, trigger, admits uint8, raw []byte, empty bool) {
		b := Batch{Seq: seq, Slot: int(slot)}
		for i := 0; i < int(admits%3); i++ {
			b.Admit = append(b.Admit, AdmitFunc{Name: name, App: app, User: user, Trigger: trigger + uint8(i)})
		}
		for ; len(raw) >= 16; raw = raw[16:] {
			b.Events = append(b.Events, EventPair{int64(binary.LittleEndian.Uint64(raw)), int64(binary.LittleEndian.Uint64(raw[8:]))})
		}
		if empty && b.Admit == nil && b.Events == nil {
			b.Admit, b.Events = []AdmitFunc{}, []EventPair{}
		}
		want, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		got := appendBatch([]byte("x"), &b)
		if string(got) != "x"+string(want) {
			t.Fatalf("appendBatch(%+v)\n got %s\nwant x%s", b, got, want)
		}
		// Back through the decoder: what encoding/json makes of the line,
		// which is b itself unless a string was not UTF-8 or a slice was
		// empty rather than nil.
		var back, ref Batch
		if _, err := decodeBatch(got[1:], &back, nil); err != nil {
			t.Fatalf("decodeBatch(%s): %v", want, err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("decodeBatch(%s) = %+v, encoding/json says %+v", want, back, ref)
		}
		if !empty && validUTF8(name, app, user) && !reflect.DeepEqual(back, b) {
			t.Fatalf("round trip of %+v came back %+v", b, back)
		}
	})
}

func FuzzAppendReply(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(uint64(i), int64(i), int64(-i), int64(i), uint8(i), s, s, pairBytes(1, -2, 3, int64(i)))
	}
	f.Add(uint64(math.MaxUint64), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), uint8(7), "fixed-keepalive", "", pairBytes(math.MinInt64, math.MaxInt64, 0))
	f.Add(uint64(3), int64(4), int64(0), int64(12), uint8(1), "", "", []byte{})
	f.Add(uint64(3), int64(4), int64(0), int64(12), uint8(9), "", "", []byte{})
	f.Fuzz(func(t *testing.T, seq uint64, slot, keepalive, loaded int64, flags uint8, policy, errStr string, raw []byte) {
		r := Reply{Seq: seq, Slot: int(slot), Applied: flags&1 != 0, Duplicate: flags&2 != 0, Degraded: flags&4 != 0,
			Policy: policy, Keepalive: int(keepalive), Loaded: int(loaded), Error: errStr}
		lists := []*[]int64{&r.Admitted, &r.Cold, &r.Flips}
		for i := 0; len(raw) >= 8; raw, i = raw[8:], i+1 {
			*lists[i%3] = append(*lists[i%3], int64(binary.LittleEndian.Uint64(raw)))
		}
		empty := flags&8 != 0 && r.Admitted == nil
		if empty {
			r.Admitted, r.Cold, r.Flips = []int64{}, []int64{}, []int64{}
		}
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendReply([]byte("x"), &r)
		if string(got) != "x"+string(want) {
			t.Fatalf("appendReply(%+v)\n got %s\nwant x%s", r, got, want)
		}
		var back, ref Reply
		if _, err := decodeReply(got[1:], &back, nil); err != nil {
			t.Fatalf("decodeReply(%s): %v", want, err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("decodeReply(%s) = %+v, encoding/json says %+v", want, back, ref)
		}
		if !empty && validUTF8(policy, errStr) && !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip of %+v came back %+v", r, back)
		}
	})
}

func validUTF8(ss ...string) bool {
	for _, s := range ss {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

// pairBytes packs int64s the way the append fuzz targets unpack them.
func pairBytes(vs ...int64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// TestDecodeFastPathTaken keeps the fuzz targets honest: they pass just as
// well if every line takes the encoding/json fallback, so the steady-state
// shapes must decode without it — seen as no allocation at all.
func TestDecodeFastPathTaken(t *testing.T) {
	batch := []byte(` {"slot": 10 ,"seq":1, "events" : [ [0,1] , [3,2],[4,-0]]} ` + "\r")
	reply := []byte(`{"seq":1,"slot":10,"applied":true,"duplicate":false,"cold":[1,2],"flips":[3],"loaded":12,"keepalive":0,"admitted":[5]}`)
	events, ids := make([]EventPair, 0, 8), make([]int64, 0, 8)
	var b Batch
	var r Reply
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeBatch(batch, &b, events); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeReply(reply, &r, ids); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("the canonical lines cost %v allocations to decode: the scanner gave up on them", n)
	}
	if want := (Batch{Seq: 1, Slot: 10, Events: []EventPair{{0, 1}, {3, 2}, {4, 0}}}); !reflect.DeepEqual(b, want) {
		t.Fatalf("decoded %+v, want %+v", b, want)
	}
	if want := (Reply{Seq: 1, Slot: 10, Applied: true, Admitted: []int64{5}, Cold: []int64{1, 2}, Flips: []int64{3}, Loaded: 12}); !reflect.DeepEqual(r, want) {
		t.Fatalf("decoded %+v, want %+v", r, want)
	}
}

// discard is the http.ResponseWriter of the allocation measurements: the
// recorder's growing body buffer would be counted against the handler.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// handlerLoad is a daemon plus a stream of valid one-slot request bodies of a
// fixed event count, for the allocation budget and the benchmark.
type handlerLoad struct {
	srv    *Server
	h      http.Handler
	events []EventPair
	body   []byte
	seq    uint64
}

func newHandlerLoad(tb testing.TB, events int) *handlerLoad {
	tb.Helper()
	train, _ := testWorkload(tb, 300, "")
	srv, err := New(Config{Dir: tb.TempDir(), Policy: core.DefaultConfig(), Training: train, SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	l := &handlerLoad{srv: srv, h: srv.Handler()}
	for f := 0; f < events; f++ {
		l.events = append(l.events, EventPair{int64(f), 1})
	}
	return l
}

// post delivers the next slot through the handler.
func (l *handlerLoad) post(tb testing.TB) {
	l.seq++
	l.body = append(appendBatch(l.body[:0], &Batch{Seq: l.seq, Slot: int(l.seq), Events: l.events}), '\n')
	w := discard{h: http.Header{}}
	l.h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(l.body)))
	if w.code != 0 && w.code != http.StatusOK {
		tb.Fatalf("POST /v1/events at seq %d: status %d", l.seq, w.code)
	}
}

// historyRoom reports whether the daemon's recorded history can take n more
// slots of this load without growing a series: that growth is amortized
// allocation of the apply loop, not of the request path under measurement.
func (l *handlerLoad) historyRoom(n int) bool {
	l.srv.mu.Lock()
	defer l.srv.mu.Unlock()
	for _, ev := range l.events {
		if s := l.srv.history.Series[ev[0]]; cap(s)-len(s) < n {
			return false
		}
	}
	return true
}

// perRun is testing.AllocsPerRun with the bytes allocated per run beside it.
func perRun(runs int, f func()) (allocs float64, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&m1)
	return allocs, (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs+1)
}

// TestHandleEventsAllocBudget holds the request path to its contract: what a
// steady-state request allocates does not depend on how many events it
// carries. The warm-up runs the policy's timing wheel (2048 slots) through
// one revolution, after which its buckets recycle, and on until the recorded
// history has room for the measured slots; what is left is the handler, the
// codec, the journal, the queue hand-off and net/http's request and header.
func TestHandleEventsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no allocation budget under the race detector")
	}
	const runs = 100
	// The decision timer, the response header and httptest's request (its
	// 4 KB bufio.Reader is most of it) measure 5.9-7.4 KB; the parent's 64 KB
	// scanner buffer alone was four times the budget.
	const budget = 16 << 10
	var allocs [2]float64
	for i, n := range []int{1, 250} {
		l := newHandlerLoad(t, n)
		for warm := 0; warm < 2100 || !l.historyRoom(runs+2); warm++ {
			l.post(t)
		}
		var bytes uint64
		allocs[i], bytes = perRun(runs, func() { l.post(t) })
		t.Logf("%d events: %v allocations, %d B per request", n, allocs[i], bytes)
		if bytes > budget {
			t.Errorf("a %d-event request allocated %d B, budget %d B", n, bytes, budget)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a 250-event request costs %v allocations, a 1-event request %v: something scales with the event count", allocs[1], allocs[0])
	}
}

func BenchmarkHandleEvents(b *testing.B) {
	l := newHandlerLoad(b, 250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.post(b)
	}
}

// canned is a transport that answers every request with the next of its
// bodies (the last one again once they run out).
type canned struct{ bodies [][]byte }

func (c *canned) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	body := c.bodies[0]
	if len(c.bodies) > 1 {
		c.bodies = c.bodies[1:]
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}, nil
}

// decided is an applied reply line whose cold and flip lists hold n ids from
// base up.
func decided(n int, base int64) []byte {
	r := Reply{Seq: 1, Slot: 1, Applied: true, Loaded: n}
	for i := 0; i < n; i++ {
		r.Cold, r.Flips = append(r.Cold, base+int64(i)), append(r.Flips, base+int64(i))
	}
	return append(appendReply(nil, &r), '\n')
}

// TestClientSendAllocBudget: a Send costs the same number of allocations
// whatever the batch and its reply carry, and beyond what it hands the
// caller — the replies and their lists — a bounded number of bytes.
func TestClientSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no allocation budget under the race detector")
	}
	const budget = 8 << 10 // measured 2.4 KB, nearly all of it net/http's request and client
	var allocs [2]float64
	for i, n := range []int{1, 250} {
		c := &Client{Base: "http://daemon", HTTP: &http.Client{Transport: &canned{bodies: [][]byte{decided(n, 0)}}}}
		batch := []Batch{{Slot: 1}}
		for f := 0; f < n; f++ {
			batch[0].Events = append(batch[0].Events, EventPair{int64(f), 1})
		}
		var bytes uint64
		allocs[i], bytes = perRun(100, func() {
			if _, err := c.Send(batch); err != nil {
				t.Fatal(err)
			}
		})
		handed := uint64(2 * n * 8)
		t.Logf("%d events: %v allocations, %d B per Send, %d B of them the reply lists", n, allocs[i], bytes, handed)
		if bytes > budget+handed {
			t.Errorf("a %d-event Send allocated %d B, budget %d B over the %d B it returns", n, bytes, budget, handed)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a 250-event Send costs %v allocations, a 1-event Send %v: something scales with the event count", allocs[1], allocs[0])
	}
}

// TestSendRepliesAreTheCallers: replies decode into pooled memory but leave
// Send in memory of their own — a later Send does not write over them — with
// absent lists nil, which is how callers compare them to reference decisions.
func TestSendRepliesAreTheCallers(t *testing.T) {
	tr := &canned{bodies: [][]byte{
		append(decided(3, 100), `{"seq":2,"slot":2,"applied":true,"loaded":0}`+"\n"...),
		append(decided(3, 200), decided(3, 300)...),
	}}
	c := &Client{Base: "http://daemon", HTTP: &http.Client{Transport: tr}}
	first, err := c.Send([]Batch{{Slot: 1}, {Slot: 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Reply{
		{Seq: 1, Slot: 1, Applied: true, Cold: []int64{100, 101, 102}, Flips: []int64{100, 101, 102}, Loaded: 3},
		{Seq: 2, Slot: 2, Applied: true},
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("first Send returned %+v, want %+v", first, want)
	}
	if _, err := c.Send([]Batch{{Slot: 3}, {Slot: 4}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("a later Send rewrote the first one's replies: %+v", first)
	}
	first[0].Cold = append(first[0].Cold, 7) // must not run into the flips behind it
	if !reflect.DeepEqual(first[0].Flips, want[0].Flips) {
		t.Fatalf("appending to a reply's cold list wrote into its flips: %v", first[0].Flips)
	}
}

// TestOversizeLineRejectedThenRecovers: the 1 MiB line bound survives the
// pooled buffers. A line over it is a 400 and costs the daemon nothing — the
// next request is served — a long line under it is accepted, and a scratch
// that a long line grew does not go back to the pool at that size.
func TestOversizeLineRejectedThenRecovers(t *testing.T) {
	train, _ := testWorkload(t, 24, "")
	s, c := startServer(t, Config{Dir: t.TempDir(), Policy: core.DefaultConfig(), Training: train, SnapshotEvery: -1})
	defer s.Close()
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(c.Base+"/v1/events", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(text)
	}
	line := func(seq uint64, pad int) []byte {
		b := appendBatch(nil, &Batch{Seq: seq, Slot: int(seq), Events: []EventPair{{0, 1}}})
		return append(append(b, bytes.Repeat([]byte(" "), pad-len(b))...), '\n')
	}

	if code, text := post(line(1, maxBatchLine)); code != http.StatusBadRequest || !strings.Contains(text, "token too long") {
		t.Fatalf("a %d-byte line: status %d %q, want 400 token too long", maxBatchLine, code, text)
	}
	if code, text := post(line(1, maxBatchLine-1)); code != http.StatusOK || !strings.Contains(text, `"applied":true`) {
		t.Fatalf("the longest legal line after an oversized one: status %d %q", code, text)
	}
	c.nextSeq.Store(1)
	if replies, err := c.Send([]Batch{{Slot: 2, Events: []EventPair{{0, 1}}}}); err != nil || !replies[0].Applied {
		t.Fatalf("an ordinary request after the long ones: %+v, %v", replies, err)
	}

	req := ingestPool.Get().(*ingest)
	req.events = make([]EventPair, 0, maxPooledElems+1)
	req.ids = make([]int64, 0, maxPooledElems)
	req.out = make([]byte, 0, maxPooledBytes+1)
	req.release()
	if req.events != nil || req.out != nil || cap(req.ids) != maxPooledElems || len(req.line) != maxPooledBytes {
		t.Fatalf("release kept events cap %d, out cap %d, ids cap %d, line %d", cap(req.events), cap(req.out), cap(req.ids), len(req.line))
	}
}
