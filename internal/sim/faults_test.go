package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/retry"
	"repro/internal/trace"
)

// shardedNever is neverLoadedPolicy with the sharded contract: every shard
// gets a fresh (stateless) instance. It hashes its (empty) config so
// cache-backed failure tests qualify for the shard cache.
type shardedNever struct{ neverLoadedPolicy }

func (shardedNever) NewShard() Policy   { return shardedNever{} }
func (shardedNever) ConfigHash() uint64 { return HashConfig("never-loaded-test") }

// panicTickPolicy panics deterministically inside every Tick — a worker
// crash no amount of retrying cures.
type panicTickPolicy struct{ neverLoadedPolicy }

func (panicTickPolicy) Name() string                { return "panic-tick" }
func (panicTickPolicy) NewShard() Policy            { return panicTickPolicy{} }
func (panicTickPolicy) Tick(int, []trace.FuncCount) { panic("deterministic tick crash") }

// panicOnceHook panics the first time it sees each shard — the injected
// transient crash the isolation layer owes a retry.
type panicOnceHook struct {
	mu   sync.Mutex
	seen map[int]bool
}

func (h *panicOnceHook) BeforeShard(shard, attempt int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == nil {
		h.seen = make(map[int]bool)
	}
	if !h.seen[shard] {
		h.seen[shard] = true
		panic(fmt.Sprintf("injected crash on shard %d", shard))
	}
}

// alwaysPanicHook crashes every attempt: the budget must exhaust and the
// failure must surface structured, never as an unrecovered panic.
type alwaysPanicHook struct{}

func (alwaysPanicHook) BeforeShard(shard, attempt int) {
	panic(fmt.Sprintf("persistent crash on shard %d attempt %d", shard, attempt))
}

// flakySource wraps a shardSet (keeping its fingerprints, so cache-backed
// runs still qualify) and fails Shard(failShard) with err for the first
// failN calls.
type flakySource struct {
	*shardSet
	failShard int
	err       error

	mu    sync.Mutex
	calls int
	failN int
}

func (s *flakySource) Shard(i int) (*trace.ShardView, *trace.ShardView, error) {
	if i == s.failShard {
		s.mu.Lock()
		s.calls++
		fail := s.calls <= s.failN
		s.mu.Unlock()
		if fail {
			return nil, nil, s.err
		}
	}
	return s.shardSet.Shard(i)
}

// fastRetry keeps test retries from sleeping meaningfully.
var fastRetry = RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}

func mustRun(t *testing.T, opts Options) *Result {
	t.Helper()
	tr := tinyTrace()
	res, err := Run(shardedNever{}, tr, tr, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// A run whose every shard crashes once must complete bit-identical to an
// undisturbed run.
func TestShardPanicRetriedAndBitIdentical(t *testing.T) {
	clean := mustRun(t, Options{Shards: 2})
	faulted := mustRun(t, Options{Shards: 2, Retry: fastRetry, FaultHook: &panicOnceHook{}})
	a, b := *clean, *faulted
	a.Overhead, b.Overhead = 0, 0
	if !reflect.DeepEqual(&a, &b) {
		t.Errorf("results diverged after injected panics:\nclean   %+v\nfaulted %+v", a, b)
	}
}

// A persistently crashing worker must exhaust the attempt budget and
// surface a structured ShardError with the panic classification — and the
// other shards' failures must all be present in the joined error.
func TestShardPersistentPanicSurfacesStructured(t *testing.T) {
	tr := tinyTrace()
	res, err := Run(shardedNever{}, tr, tr, Options{Shards: 2, Retry: fastRetry, FaultHook: alwaysPanicHook{}})
	if res != nil {
		t.Fatalf("got a Result from a run whose every shard failed: %+v", res)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error does not unwrap to *ShardError: %v", err)
	}
	if !se.Panicked || !se.Transient {
		t.Errorf("ShardError classification = panicked %v transient %v, want true/true: %v", se.Panicked, se.Transient, se)
	}
	if se.Attempts != retry.DefaultAttempts {
		t.Errorf("ShardError attempts = %d, want the default budget %d", se.Attempts, retry.DefaultAttempts)
	}
	if se.Policy != "never-loaded" || se.Shards != 2 {
		t.Errorf("ShardError context = %q %d shards, want never-loaded / 2", se.Policy, se.Shards)
	}
}

// A deterministic (unmarked) production error must fail its shard on the
// FIRST attempt — no retry — while the other shard completes and its
// outcome lands in the cache for a later resume.
func TestShardDeterministicErrorFailsFast(t *testing.T) {
	tr := tinyTrace()
	cause := errors.New("schema mismatch")
	src := &flakySource{shardSet: buildShardSet(tr, tr, 2), failShard: 1, err: cause, failN: 1 << 30}
	cache := NewShardCache()
	res, err := RunStreamed(shardedNever{}, src, Options{Retry: fastRetry, Cache: cache})
	if res != nil {
		t.Fatalf("got a Result from a failed run: %+v", res)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error does not unwrap to *ShardError: %v", err)
	}
	if se.Shard != 1 || se.Transient || se.Panicked || se.Attempts != 1 {
		t.Errorf("ShardError = %+v, want deterministic single-attempt failure of shard 1", se)
	}
	if !errors.Is(err, cause) {
		t.Errorf("joined error does not wrap the cause: %v", err)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Errorf("surviving shard's outcome not cached for resume: stats %+v", st)
	}
}

// A production error marked transient is retried and the run completes,
// identical to an undisturbed one.
func TestShardTransientErrorRetriedAndBitIdentical(t *testing.T) {
	tr := tinyTrace()
	clean, err := RunStreamed(shardedNever{}, buildShardSet(tr, tr, 2), Options{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	src := &flakySource{shardSet: buildShardSet(tr, tr, 2), failShard: 0,
		err: MarkTransient(errors.New("io hiccup")), failN: 2}
	faulted, err := RunStreamed(shardedNever{}, src, Options{Retry: fastRetry})
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}
	a, b := *clean, *faulted
	a.Overhead, b.Overhead = 0, 0
	if !reflect.DeepEqual(&a, &b) {
		t.Errorf("results diverged after transient production faults:\nclean   %+v\nfaulted %+v", a, b)
	}
}

// Exhausting the budget on a transient error keeps the transient
// classification (so callers can tell "kept failing" from "would always
// fail").
func TestShardTransientExhaustionKeepsClassification(t *testing.T) {
	tr := tinyTrace()
	src := &flakySource{shardSet: buildShardSet(tr, tr, 2), failShard: 0,
		err: MarkTransient(errors.New("io hiccup")), failN: 1 << 30}
	_, err := RunStreamed(shardedNever{}, src, Options{Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error does not unwrap to *ShardError: %v", err)
	}
	if !se.Transient || se.Panicked || se.Attempts != 2 {
		t.Errorf("ShardError = %+v, want transient, 2 attempts", se)
	}
}

// A Stop channel closed before the run starts must yield ErrInterrupted
// and no Result; one closed mid-run must still drain in-flight shards.
func TestRunInterrupted(t *testing.T) {
	tr := tinyTrace()
	stop := make(chan struct{})
	close(stop)
	res, err := Run(shardedNever{}, tr, tr, Options{Shards: 2, Stop: stop})
	if res != nil {
		t.Fatalf("interrupted run returned a Result: %+v", res)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error is not ErrInterrupted: %v", err)
	}
}

// RunAll must return partial results: the healthy policy's Result in its
// slot, nil for the crashed one, and the joined error identifying it.
func TestRunAllPartialResults(t *testing.T) {
	tr := tinyTrace()
	results, err := RunAll([]Policy{shardedNever{}, panicTickPolicy{}}, tr, tr,
		Options{Shards: 2, Retry: fastRetry})
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

func TestRetryPolicyBudgetAndBackoff(t *testing.T) {
	if got := (RetryPolicy{}).Attempts(); got != retry.DefaultAttempts {
		t.Errorf("zero policy attempts = %d, want %d", got, retry.DefaultAttempts)
	}
	if got := (RetryPolicy{MaxAttempts: -1}).Attempts(); got != 1 {
		t.Errorf("negative policy attempts = %d, want 1 (retries disabled)", got)
	}
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35} // doubling, capped
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestIsTransientWalksUnwrapChain(t *testing.T) {
	base := errors.New("disk hiccup")
	if IsTransient(base) {
		t.Error("unmarked error reported transient")
	}
	wrapped := fmt.Errorf("saving shard: %w", MarkTransient(base))
	if !IsTransient(wrapped) {
		t.Error("wrap of a marked error not reported transient")
	}
	if IsTransient(nil) {
		t.Error("nil reported transient")
	}
	if !errors.Is(wrapped, base) {
		t.Error("MarkTransient broke the Is chain")
	}
}
