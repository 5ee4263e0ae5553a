package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fakeCap is a minimal capacity-coupled policy defined at the engine's own
// level: score = last invocation slot (pure recency), ties broken by
// FuncID, budget enforced inside Train/Tick. Testing the capacity path
// against a policy the sim package owns keeps these engine tests —
// baselines get their own equivalence coverage.
type fakeCap struct {
	capacity int
	last     []int
	loaded   []bool
	count    int
}

func (p *fakeCap) Name() string { return "fake-cap" }

func (p *fakeCap) Train(training *trace.Trace) {
	n := training.NumFunctions()
	p.last = make([]int, n)
	p.loaded = make([]bool, n)
	p.count = 0
	for fid, ser := range training.Series {
		p.last[fid] = -1
		if last := ser.LastSlot(); last >= 0 {
			p.last[fid] = int(last) - training.Slots
			p.loaded[fid] = true
			p.count++
		}
	}
	p.enforce()
}

func (p *fakeCap) Tick(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		p.last[f] = t
		if !p.loaded[f] {
			p.loaded[f] = true
			p.count++
		}
	}
	p.enforce()
}

// enforce evicts the loaded function with the smallest (last, FuncID) until
// the pool fits.
func (p *fakeCap) enforce() {
	for p.count > p.capacity {
		best := -1
		for f, on := range p.loaded {
			if on && (best < 0 || p.last[f] < p.last[best]) {
				best = f
			}
		}
		p.loaded[best] = false
		p.count--
	}
}

func (p *fakeCap) Loaded(f trace.FuncID) bool            { return p.loaded[f] }
func (p *fakeCap) LoadedCount() int                      { return p.count }
func (p *fakeCap) NextWake(after, limit int) (int, bool) { return -1, true }
func (p *fakeCap) Capacity() int                         { return p.capacity }

// capTestTrace builds a deterministic 30-function trace with staggered
// periodic invocations, holes (globally empty slots), and a training
// prefix. Every function has a unique app/user so the partition
// round-robins individual functions across shards.
func capTestTrace() (train, simTr *trace.Trace) {
	const slots = 400
	full := trace.NewTrace(slots)
	for i := 0; i < 30; i++ {
		step := 3 + i%7
		var evs []trace.Event
		for s := i % step; s < slots; s += step {
			if s%11 == 3 {
				continue // leave invocation-free slots
			}
			evs = append(evs, trace.Event{Slot: int32(s), Count: int32(1 + (i+s)%3)})
		}
		full.AddFunction(fmt.Sprintf("f%d", i), fmt.Sprintf("a%d", i), fmt.Sprintf("u%d", i),
			trace.TriggerHTTP, evs)
	}
	return full.Split(100)
}

// recordingSource keeps every view its source produced, so a test can check
// what the reassembled pair shares with them.
type recordingSource struct {
	Source
	train, sim []*trace.ShardView
}

func (r *recordingSource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	tv, sv, err := r.Source.Shard(i)
	r.train, r.sim = append(r.train, tv), append(r.sim, sv)
	return tv, sv, err
}

// assertReassembles reassembles src and requires the pair to equal
// (wantTrain, wantSim) field for field — Slots, Functions including ID,
// Series, a nil train exactly when wantTrain is nil — and to share, not
// copy, the series backing arrays of the views src produced.
func assertReassembles(t *testing.T, label string, src Source, wantTrain, wantSim *trace.Trace) {
	t.Helper()
	rec := &recordingSource{Source: src}
	gotTrain, gotSim, err := reassemble("test", rec, Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	same := func(half string, got, want *trace.Trace, views []*trace.ShardView) {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: %s trace nil=%v, want nil=%v", label, half, got == nil, want == nil)
		}
		if want == nil {
			return
		}
		if got.Slots != want.Slots {
			t.Errorf("%s: %s Slots = %d, want %d", label, half, got.Slots, want.Slots)
		}
		if !reflect.DeepEqual(got.Functions, want.Functions) {
			t.Errorf("%s: %s Functions differ from the materialized trace's", label, half)
		}
		if len(got.Series) != len(want.Series) {
			t.Fatalf("%s: %s has %d series, want %d", label, half, len(got.Series), len(want.Series))
		}
		for g := range want.Series {
			if len(got.Series[g]) != len(want.Series[g]) ||
				(len(want.Series[g]) > 0 && !reflect.DeepEqual(got.Series[g], want.Series[g])) {
				t.Fatalf("%s: %s series of function %d differs", label, half, g)
			}
		}
		for _, v := range views {
			for li, g := range v.Global {
				if s := v.Series[li]; len(s) > 0 && &s[0] != &got.Series[g][0] {
					t.Fatalf("%s: %s series of function %d was copied, not shared", label, half, g)
				}
			}
		}
	}
	same("sim", gotSim, wantSim, rec.sim)
	if wantTrain != nil {
		same("train", gotTrain, wantTrain, rec.train)
		if &gotTrain.Functions[0] != &gotSim.Functions[0] {
			t.Errorf("%s: train and sim do not share one Functions slice", label)
		}
	} else if gotTrain != nil {
		t.Errorf("%s: got a training trace from a source without one", label)
	}
}

// TestReassembleMatchesMaterialized: for every kind of Source the repo has,
// scattering the shard views back through Global yields exactly the pair
// partitioning would have produced them from.
func TestReassembleMatchesMaterialized(t *testing.T) {
	train, simTr := capTestTrace()
	for _, p := range []int{1, 2, 5, 16} {
		assertReassembles(t, fmt.Sprintf("shardSet x%d", p), buildShardSet(train, simTr, p), train, simTr)
	}
	assertReassembles(t, "shardSet untrained", buildShardSet(nil, simTr, 3), nil, simTr)

	cfg := trace.DefaultGeneratorConfig(120, 3, 7)
	full, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	genTrain, genSim := full.Split(2 * 1440)
	for _, p := range []int{1, 2, 5, 16} {
		assertReassembles(t, fmt.Sprintf("generator x%d", p),
			&GeneratorSource{Cfg: cfg, TrainSlots: 2 * 1440, Shards: p}, genTrain, genSim)
	}
	assertReassembles(t, "generator untrained", &GeneratorSource{Cfg: cfg, Shards: 4}, nil, full)

	const sample = "../../testdata/azure_sample.csv"
	f, err := os.Open(sample)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(sample); err != nil {
		t.Fatal(err)
	}
	store, _, err := trace.IngestCSV(f, filepath.Join(t.TempDir(), "store"), trace.IngestOptions{Shards: 4})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	src, err := store.Source(3 * 1440)
	if err != nil {
		t.Fatal(err)
	}
	csvTrain, csvSim := csv.Split(3 * 1440)
	assertReassembles(t, "store x4", src, csvTrain, csvSim)
}

// brokenSource serves a shardSet's views, with shard `at`'s damaged by the
// test first (on copies; a damage that clears tv.Trace drops the training
// view).
type brokenSource struct {
	*shardSet
	at     int
	damage func(tv, sv *trace.ShardView)
}

func (b *brokenSource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	tv, sv, _ := b.shardSet.Shard(i)
	if i != b.at {
		return tv, sv, nil
	}
	clone := func(v *trace.ShardView) *trace.ShardView {
		return &trace.ShardView{
			Trace:  &trace.Trace{Slots: v.Slots, Functions: v.Functions, Series: v.Series},
			Index:  v.Index,
			Global: append([]trace.FuncID(nil), v.Global...),
		}
	}
	tv, sv = clone(tv), clone(sv)
	b.damage(tv, sv)
	if tv.Trace == nil {
		tv = nil
	}
	return tv, sv, nil
}

// TestReassembleRejectsBrokenSource: every Source contract clause the
// scatter leans on is checked, and the refusal names the offending shard —
// through RunStreamed it is an error, never a panic or a wrong Result.
func TestReassembleRejectsBrokenSource(t *testing.T) {
	train, simTr := capTestTrace()
	n := trace.FuncID(simTr.NumFunctions())
	for _, c := range []struct {
		name   string
		at     int
		want   string
		damage func(tv, sv *trace.ShardView)
	}{
		{"id out of range", 1, "shard 1/3", func(tv, sv *trace.ShardView) { sv.Global[0] = n }},
		{"negative id", 0, "shard 0/3", func(tv, sv *trace.ShardView) { sv.Global[0] = -1 }},
		{"id twice", 2, "shard 2/3", func(tv, sv *trace.ShardView) { sv.Global[0] = 0 }}, // shard 0 owns id 0
		{"id missing", 1, "produced global id 1", func(tv, sv *trace.ShardView) {
			for _, v := range []*trace.ShardView{tv, sv} {
				v.Global, v.Functions, v.Series = v.Global[1:], v.Functions[1:], v.Series[1:]
			}
		}},
		{"sim slots disagree", 1, "shard 1/3", func(tv, sv *trace.ShardView) { sv.Slots++ }},
		{"train slots disagree", 2, "shard 2/3", func(tv, sv *trace.ShardView) { tv.Slots-- }},
		{"train half vanishes", 1, "shard 1/3", func(tv, sv *trace.ShardView) { tv.Trace = nil }},
		{"series shorter than ids", 0, "shard 0/3", func(tv, sv *trace.ShardView) { sv.Series = sv.Series[1:] }},
	} {
		src := &brokenSource{shardSet: buildShardSet(train, simTr, 3), at: c.at, damage: c.damage}
		res, err := RunStreamed(&fakeCap{capacity: 9}, src, Options{})
		if err == nil || res != nil {
			t.Errorf("%s: got (%v, %v), want an error and no Result", c.name, res, err)
			continue
		}
		if !strings.Contains(err.Error(), "Source contract") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the contract and %q", c.name, err, c.want)
		}
	}
}

// TestCapacityEngineValidation covers the capacity path's refusals: a
// non-positive budget is a configuration error, and a Stop closed before
// the run (materialized) or before the first production (streamed) returns
// ErrInterrupted.
func TestCapacityEngineValidation(t *testing.T) {
	train, simTr := capTestTrace()

	if _, err := Run(&fakeCap{capacity: 0}, train, simTr, Options{Shards: 2}); err == nil {
		t.Error("capacity 0: want error, got nil")
	}

	stop := make(chan struct{})
	close(stop)
	_, err := Run(&fakeCap{capacity: 9}, train, simTr, Options{Shards: 2, Stop: stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Errorf("pre-closed Stop: want ErrInterrupted, got %v", err)
	}
	src := &flakySource{shardSet: buildShardSet(train, simTr, 2), failShard: -1}
	_, err = RunStreamed(&fakeCap{capacity: 9}, src, Options{Stop: stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Errorf("pre-closed Stop, streamed: want ErrInterrupted, got %v", err)
	}
}

// TestCapacityEngineClassifiesShardFailure: a failed production on the
// reassembly path goes through the sharded engine's isolation layer — a
// transient failure is retried and the run completes equal to a clean one,
// a deterministic failure surfaces after one attempt as a ShardError naming
// the shard.
func TestCapacityEngineClassifiesShardFailure(t *testing.T) {
	train, simTr := capTestTrace()
	clean, err := Run(&fakeCap{capacity: 9}, train, simTr, Options{})
	if err != nil {
		t.Fatal(err)
	}

	src := &flakySource{shardSet: buildShardSet(train, simTr, 2), failShard: 1,
		err: MarkTransient(errors.New("disk hiccup")), failN: 1}
	got, err := RunStreamed(&fakeCap{capacity: 9}, src, Options{Retry: fastRetry})
	if err != nil {
		t.Fatalf("transient: run did not recover: %v", err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Errorf("transient: result diverged from the clean run:\n got  %+v\n want %+v", got, clean)
	}
	if src.calls != 2 {
		t.Errorf("transient: shard 1 produced %d times, want 2 (one retry)", src.calls)
	}

	src = &flakySource{shardSet: buildShardSet(train, simTr, 2), failShard: 1,
		err: errors.New("bad shard"), failN: 1}
	_, err = RunStreamed(&fakeCap{capacity: 9}, src, Options{Retry: fastRetry})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("deterministic: got %v, want a ShardError", err)
	}
	if se.Shard != 1 || se.Attempts != 1 || se.Transient || se.Panicked {
		t.Errorf("deterministic: ShardError %+v, want shard 1, 1 attempt, not transient, not panicked", *se)
	}
	if src.calls != 1 {
		t.Errorf("deterministic: shard 1 produced %d times, want 1", src.calls)
	}
}

// panickySource panics producing shard 1.
type panickySource struct{ *shardSet }

func (s panickySource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	if i == 1 {
		panic("source exploded")
	}
	return s.shardSet.Shard(i)
}

// panickyCap is a fakeCap whose Tick panics at slot 50.
type panickyCap struct{ fakeCap }

func (p *panickyCap) Tick(t int, invs []trace.FuncCount) {
	if t == 50 {
		panic("policy exploded")
	}
	p.fakeCap.Tick(t, invs)
}

// TestCapacityEngineContainsPanics: a panicking source or policy on the
// capacity path is an error, not a crashed process.
func TestCapacityEngineContainsPanics(t *testing.T) {
	train, simTr := capTestTrace()

	_, err := RunStreamed(&fakeCap{capacity: 9}, panickySource{buildShardSet(train, simTr, 2)}, Options{Retry: fastRetry})
	var se *ShardError
	if !errors.As(err, &se) || !se.Panicked || se.Shard != 1 {
		t.Errorf("panicking source: got %v, want a panicked ShardError for shard 1", err)
	}

	for name, opts := range map[string]Options{
		"materialized": {Shards: 2},
		"streamed":     {Source: buildShardSet(train, simTr, 2)},
	} {
		res, err := Run(&panickyCap{fakeCap{capacity: 9}}, train, simTr, opts)
		if err == nil || res != nil || !strings.Contains(err.Error(), "policy exploded") {
			t.Errorf("panicking policy, %s: got (%v, %v), want an error carrying the panic", name, res, err)
		}
	}
}
