package sim

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// shardedNever is neverLoadedPolicy with the sharded contract: every shard
// gets a fresh (stateless) instance.
type shardedNever struct{ neverLoadedPolicy }

func (shardedNever) NewShard() Policy { return shardedNever{} }

// panicTickPolicy panics inside every Tick.
type panicTickPolicy struct{ neverLoadedPolicy }

func (panicTickPolicy) Name() string                { return "panic-tick" }
func (panicTickPolicy) NewShard() Policy            { return panicTickPolicy{} }
func (panicTickPolicy) Tick(int, []trace.FuncCount) { panic("deterministic tick crash") }

// panicOnShard is a sharded policy whose instance on one shard — the shard
// whose first function is named first — panics in its first Tick.
type panicOnShard struct {
	shardedNever
	first string
	armed bool
}

func (p *panicOnShard) Name() string             { return "panic-on-shard" }
func (p *panicOnShard) NewShard() Policy         { return &panicOnShard{first: p.first} }
func (p *panicOnShard) Train(train *trace.Trace) { p.armed = train.Functions[0].Name == p.first }
func (p *panicOnShard) Tick(int, []trace.FuncCount) {
	if p.armed {
		panic("tick crash on the planted shard")
	}
}

// panicSource panics producing one shard.
type panicSource struct {
	*shardSet
	shard int
}

func (s panicSource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	if i == s.shard {
		panic("source exploded")
	}
	return s.shardSet.Shard(i)
}

// failingSource wraps a shardSet and fails every Shard(failShard) call
// with err, counting them.
type failingSource struct {
	*shardSet
	failShard int
	err       error
	calls     atomic.Int32
}

func (s *failingSource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	if i == s.failShard {
		s.calls.Add(1)
		return nil, nil, s.err
	}
	return s.shardSet.Shard(i)
}

// shardErrors collects every ShardError in err's tree.
func shardErrors(err error) []*ShardError {
	if se, ok := err.(*ShardError); ok {
		return []*ShardError{se}
	}
	var out []*ShardError
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			out = append(out, shardErrors(e)...)
		}
	case interface{ Unwrap() error }:
		out = shardErrors(u.Unwrap())
	}
	return out
}

// A panic in shard i — in a policy's Tick or in the source producing the
// shard — surfaces as exactly one ShardError naming i, marked Panicked, on
// every path that runs shards: the sharded Run, RunStreamed, RunAll (where
// only the failed policy's slot is nil) and the capacity reassembly. No
// Result is merged from the other shards.
func TestShardPanicFailsStructured(t *testing.T) {
	train, simTr := capTestTrace()
	const p, bad = 3, 1
	ss := buildShardSet(train, simTr, p)
	clean, err := Run(shardedNever{}, train, simTr, Options{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	crash := &panicOnShard{first: ss.sim[bad].Functions[0].Name}
	src := panicSource{ss, bad}
	one := func(r *Result, err error) ([]*Result, error) { return []*Result{r}, err }
	for _, c := range []struct {
		name string
		run  func() ([]*Result, error)
		// failed names the policy that must fail at each result slot; ""
		// marks a slot whose result must equal the clean run.
		failed []string
	}{
		{"tick/Run", func() ([]*Result, error) { return one(Run(crash, train, simTr, Options{Shards: p})) },
			[]string{"panic-on-shard"}},
		{"tick/RunStreamed", func() ([]*Result, error) { return one(RunStreamed(crash, ss, Options{})) },
			[]string{"panic-on-shard"}},
		{"tick/RunAll", func() ([]*Result, error) {
			return RunAll([]Policy{shardedNever{}, crash, shardedNever{}}, train, simTr, Options{Shards: p})
		}, []string{"", "panic-on-shard", ""}},
		{"source/Run", func() ([]*Result, error) { return one(Run(shardedNever{}, nil, nil, Options{Source: src})) },
			[]string{"never-loaded"}},
		{"source/RunStreamed", func() ([]*Result, error) { return one(RunStreamed(shardedNever{}, src, Options{})) },
			[]string{"never-loaded"}},
		{"source/RunAll", func() ([]*Result, error) {
			return RunAll([]Policy{shardedNever{}, &fakeCap{capacity: 9}}, nil, nil, Options{Source: src})
		}, []string{"never-loaded", "fake-cap"}},
		{"source/capacity", func() ([]*Result, error) { return one(RunStreamed(&fakeCap{capacity: 9}, src, Options{})) },
			[]string{"fake-cap"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			results, err := c.run()
			if len(results) != len(c.failed) {
				t.Fatalf("%d results, want %d", len(results), len(c.failed))
			}
			var want []string
			for i, policy := range c.failed {
				switch {
				case policy != "":
					want = append(want, policy)
					if results[i] != nil {
						t.Errorf("slot %d: got a Result from a failed run: %+v", i, results[i])
					}
				case results[i] == nil:
					t.Errorf("slot %d: healthy run returned no Result", i)
				default:
					if d := clean.Diff(results[i]); d != "" {
						t.Errorf("slot %d: healthy result differs from the clean run:\n%s", i, d)
					}
				}
			}
			var got []string
			for _, se := range shardErrors(err) {
				got = append(got, se.Policy)
				if se.Shard != bad || se.Shards != p || !se.Panicked {
					t.Errorf("ShardError %+v, want a recovered panic of shard %d/%d", *se, bad, p)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ShardErrors from policies %q, want one from each of %q: %v", got, want, err)
			}
		})
	}
}

// A production error fails its shard with one call to Shard — no retry —
// while the other shard runs to its own verdict: the joined error holds
// shard 1's failure alone.
func TestShardDeterministicErrorFailsFast(t *testing.T) {
	tr := tinyTrace()
	cause := errors.New("schema mismatch")
	src := &failingSource{shardSet: buildShardSet(tr, tr, 2), failShard: 1, err: cause}
	res, err := RunStreamed(shardedNever{}, src, Options{})
	if res != nil {
		t.Fatalf("got a Result from a failed run: %+v", res)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error does not unwrap to *ShardError: %v", err)
	}
	if se.Shard != 1 || se.Panicked || src.calls.Load() != 1 {
		t.Errorf("ShardError = %+v after %d productions, want one error return of shard 1", se, src.calls.Load())
	}
	if !errors.Is(err, cause) {
		t.Errorf("joined error does not wrap the cause: %v", err)
	}
	if errs := err.(interface{ Unwrap() []error }).Unwrap(); len(errs) != 1 {
		t.Errorf("%d shard failures, want shard 1's alone: %v", len(errs), err)
	}
}

// RunAll must return partial results: the healthy policy's Result in its
// slot, nil for the crashed one, and the joined error identifying it.
func TestRunAllPartialResults(t *testing.T) {
	tr := tinyTrace()
	results, err := RunAll([]Policy{shardedNever{}, panicTickPolicy{}}, tr, tr,
		Options{Shards: 2})
	if err == nil {
		t.Fatal("RunAll with a crashing policy returned no error")
	}
	if len(results) != 2 {
		t.Fatalf("RunAll returned %d results, want 2 (with nil at failed slots)", len(results))
	}
	if results[0] == nil {
		t.Error("healthy policy's Result missing from partial results")
	}
	if results[1] != nil {
		t.Errorf("crashed policy yielded a Result: %+v", results[1])
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Policy != "panic-tick" {
		t.Errorf("joined error does not identify the crashed policy: %v", err)
	}
}

// signalSource is a two-shard source over tinyTrace that counts its Shard
// calls and signals every Shard(1) call on called.
type signalSource struct {
	*shardSet
	calls  atomic.Int32
	called chan struct{}
}

func (s *signalSource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	s.calls.Add(1)
	if i == 1 {
		select {
		case s.called <- struct{}{}:
		default:
		}
	}
	return s.shardSet.Shard(i)
}

// waitingPolicy's first shard instance trains by waiting up to 50 ms for
// a Shard(1) call, then records how many Shard calls had started by then.
type waitingPolicy struct {
	neverLoadedPolicy
	src    *signalSource
	made   *atomic.Int32
	first  bool
	seenAt *atomic.Int32
}

func (p waitingPolicy) NewShard() Policy {
	p.first = p.made.Add(1) == 1
	return p
}

func (p waitingPolicy) Train(*trace.Trace) {
	if !p.first {
		return
	}
	select {
	case <-p.src.called:
	case <-time.After(50 * time.Millisecond):
	}
	p.seenAt.Store(p.src.calls.Load())
}

// A streamed run holds one shard per in-flight worker: with one worker, no
// Shard call may start while another shard is still being simulated — a
// prefetch of the next shard would double the residency.
func TestStreamedResidencyOneShardPerWorker(t *testing.T) {
	tr := tinyTrace()
	src := &signalSource{shardSet: buildShardSet(tr, tr, 2), called: make(chan struct{}, 1)}
	pol := waitingPolicy{src: src, made: new(atomic.Int32), seenAt: new(atomic.Int32)}
	if _, err := RunStreamed(pol, src, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := pol.seenAt.Load(); got != 1 {
		t.Errorf("%d Shard calls had started while shard 0 was simulating, want 1 (its own)", got)
	}
	if got := src.calls.Load(); got != 2 {
		t.Errorf("%d Shard calls in all, want 2", got)
	}
}

// A panic in an unsharded policy under RunAll is raised again on the
// caller once the policies in flight finish, never from a bare goroutine.
func TestRunAllReraisesPolicyPanic(t *testing.T) {
	tr := tinyTrace()
	defer func() {
		if v := recover(); v != "deterministic tick crash" {
			t.Errorf("recovered %v, want the policy's panic value", v)
		}
	}()
	RunAll([]Policy{shardedNever{}, panicTickPolicy{}, shardedNever{}}, tr, tr, Options{Workers: 2})
	t.Error("RunAll returned instead of raising the policy's panic")
}
