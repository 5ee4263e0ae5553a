package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// fakeCap is a minimal capacity-coupled policy defined at the engine's own
// level: score = last invocation slot (pure recency), ties broken by
// FuncID. The unsharded form enforces its budget inside Train/Tick; the
// shard form (fakeCapShard) only scores and admits, deferring every
// eviction to the arbiter. Testing the engine against a policy the sim
// package owns keeps this a protocol test — baselines get their own
// equivalence coverage.
type fakeCapState struct {
	last   []int
	loaded []bool
	count  int
}

func (s *fakeCapState) seed(training *trace.Trace) {
	n := training.NumFunctions()
	s.last = make([]int, n)
	s.loaded = make([]bool, n)
	s.count = 0
	for fid := range s.last {
		s.last[fid] = -1
	}
	for fid, ser := range training.Series {
		if last := ser.LastSlot(); last >= 0 {
			s.last[fid] = int(last) - training.Slots
			s.loaded[fid] = true
			s.count++
		}
	}
}

func (s *fakeCapState) observe(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		s.last[f] = t
		if !s.loaded[f] {
			s.loaded[f] = true
			s.count++
		}
	}
}

// min returns the loaded function with the smallest (last, FuncID).
func (s *fakeCapState) min() (int, bool) {
	best := -1
	for f, on := range s.loaded {
		if on && (best < 0 || s.last[f] < s.last[best]) {
			best = f
		}
	}
	return best, best >= 0
}

func (s *fakeCapState) evict(f int) {
	s.loaded[f] = false
	s.count--
}

type fakeCap struct {
	capacity int
	st       fakeCapState
}

func (p *fakeCap) Name() string { return "fake-cap" }
func (p *fakeCap) Train(training *trace.Trace) {
	p.st.seed(training)
	p.enforce()
}
func (p *fakeCap) Tick(t int, invs []trace.FuncCount) {
	p.st.observe(t, invs)
	p.enforce()
}
func (p *fakeCap) enforce() {
	for p.st.count > p.capacity {
		f, _ := p.st.min()
		p.st.evict(f)
	}
}
func (p *fakeCap) Loaded(f trace.FuncID) bool            { return p.st.loaded[f] }
func (p *fakeCap) LoadedCount() int                      { return p.st.count }
func (p *fakeCap) NextWake(after, limit int) (int, bool) { return -1, true }

func (p *fakeCap) Capacity() int                   { return p.capacity }
func (p *fakeCap) NewCapacityShard() CapacityShard { return &fakeCapShard{} }

type fakeCapShard struct {
	st fakeCapState
}

func (s *fakeCapShard) Name() string                       { return "fake-cap" }
func (s *fakeCapShard) Train(training *trace.Trace)        { s.st.seed(training) }
func (s *fakeCapShard) Tick(t int, invs []trace.FuncCount) { s.st.observe(t, invs) }
func (s *fakeCapShard) PeekVictim() (float64, trace.FuncID, bool) {
	f, ok := s.st.min()
	if !ok {
		return 0, 0, false
	}
	return float64(s.st.last[f]), trace.FuncID(f), true
}
func (s *fakeCapShard) EvictVictim() {
	f, _ := s.st.min()
	s.st.evict(f)
}
func (s *fakeCapShard) Loaded(f trace.FuncID) bool            { return s.st.loaded[f] }
func (s *fakeCapShard) LoadedCount() int                      { return s.st.count }
func (s *fakeCapShard) NextWake(after, limit int) (int, bool) { return -1, true }

// capTestTrace builds a deterministic 30-function trace with staggered
// periodic invocations, holes (globally empty slots exercise the engine's
// barrier skip), and a training prefix. Every function has a unique
// app/user so the partition round-robins individual functions across
// shards.
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

// TestCapacityEngineLockstep is the engine-level half of the capacity
// equivalence story: for a policy whose unsharded eviction order is exactly
// the arbiter's (score, FuncID) total order, the lockstep run must
// reproduce the unsharded run bit for bit — not just the merged Result but
// the per-slot (loaded, active) log the merge folds, summed across shards.
func TestCapacityEngineLockstep(t *testing.T) {
	train, simTr := capTestTrace()
	const capacity = 9

	refLog := &slotLog{}
	ref, err := runOne(&fakeCap{capacity: capacity}, train, simTr, Options{}, refLog)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
		t.Fatalf("degenerate reference: %+v", ref)
	}

	for _, shards := range []int{2, 5, 16} {
		ss := buildShardSet(train, simTr, shards)
		results, logs, globals, err := runCapacityShards(&fakeCap{capacity: capacity}, capacity, ss, Options{})
		if err != nil {
			t.Fatalf("x%d: %v", shards, err)
		}

		// The shard logs must sum, slot by slot, to the unsharded log:
		// that is the invariant that makes the merged per-slot aggregates
		// (memory, WMT, EMCR) bit-identical.
		for _, lg := range logs {
			if len(lg.loaded) != len(refLog.loaded) {
				t.Fatalf("x%d: shard log has %d slots, reference %d", shards, len(lg.loaded), len(refLog.loaded))
			}
		}
		for s := range refLog.loaded {
			var loaded, active int32
			for _, lg := range logs {
				loaded += lg.loaded[s]
				active += lg.active[s]
			}
			if loaded != refLog.loaded[s] || active != refLog.active[s] {
				t.Fatalf("x%d slot %d: summed (loaded, active) = (%d, %d), unsharded (%d, %d)",
					shards, s, loaded, active, refLog.loaded[s], refLog.active[s])
			}
		}

		merged := mergeShardResults("fake-cap", simTr.Slots, simTr.NumFunctions(), globals, results, logs)
		if !reflect.DeepEqual(merged, ref) {
			t.Errorf("x%d: merged result diverges from unsharded:\n got  %+v\n want %+v", shards, merged, ref)
		}
	}
}

// TestCapacityEngineValidation covers the engine's refusals: a non-positive
// budget is a configuration error, and Options.Stop interrupts the lockstep
// loop with ErrInterrupted.
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
}

// TestCapacityEngineClassifiesShardFailure: the lockstep engine neither
// retries a failed shard production nor calls the fault hook, but the
// ShardError it returns must say what kind of failure it was.
func TestCapacityEngineClassifiesShardFailure(t *testing.T) {
	train, simTr := capTestTrace()
	for _, c := range []struct {
		name      string
		err       error
		transient bool
	}{
		{"transient", MarkTransient(errors.New("disk hiccup")), true},
		{"deterministic", errors.New("bad shard"), false},
	} {
		src := &flakySource{shardSet: buildShardSet(train, simTr, 2), failShard: 1, err: c.err, failN: 1}
		_, err := RunStreamed(&fakeCap{capacity: 9}, src, Options{Retry: fastRetry, FaultHook: alwaysPanicHook{}})
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("%s: got %v, want a ShardError", c.name, err)
		}
		if se.Shard != 1 || se.Attempts != 1 || se.Transient != c.transient || se.Panicked {
			t.Errorf("%s: ShardError %+v, want shard 1, 1 attempt, transient=%v, not panicked", c.name, *se, c.transient)
		}
		if src.calls != 1 {
			t.Errorf("%s: shard 1 produced %d times; the lockstep engine does not retry", c.name, src.calls)
		}
	}
}
