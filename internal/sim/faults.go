package sim

import (
	"errors"
	"fmt"

	"repro/internal/retry"
)

// This file is the failure-semantics layer of the sharded engine: the
// transient-vs-deterministic error taxonomy, the structured ShardError the
// engine surfaces, the retry/backoff policy, and the fault hook the
// deterministic fault-injection harness (internal/faultinject) plugs into.
// DESIGN.md "Failure semantics" is the prose form of the contracts here.

// ErrInterrupted is the sentinel wrapped by every error a cancelled run
// returns: Options.Stop was closed, the in-flight shards were drained (their
// outcomes cached as usual), and the remaining shards were never started. A
// caller that sees it can rerun with the same options to resume — completed
// units are served from the attached cache's disk tier.
var ErrInterrupted = errors.New("sim: run interrupted")

// ErrNotShardable is the sentinel wrapped by the refusal a sharded or
// streamed run returns when its policy implements neither ShardedPolicy
// (independent per-shard instances) nor CapacityPolicy (one instance over
// the whole population). Callers branch on it with errors.Is — it also
// survives RunAll's per-policy wrapping — typically to fall back to an
// unsharded run rather than report a failure.
var ErrNotShardable = errors.New("sim: policy not shardable")

// ErrCapacityCoupled is the sentinel under CapacityCacheError: a ShardCache
// was attached to a sharded or streamed run of a capacity-coupled policy,
// which has no per-shard outcomes to key (see DESIGN.md "Capacity-coupled
// policies"). The refusal is explicit rather than a silent bypass because
// a silently ignored cache would mask a misconfigured sweep.
var ErrCapacityCoupled = errors.New("sim: capacity-coupled shard outcomes are not cacheable")

// transientError marks an error as transient: worth retrying, because a
// repeat of the same operation may succeed (I/O hiccups, injected faults,
// resource exhaustion). Errors not so marked are classified deterministic —
// retrying would reproduce them — and fail the shard immediately.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true for it (and for any
// error wrapping it). Sources and hooks use it to tag failures that a
// retry may cure; a nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient walks err's Unwrap chain for anything reporting
// Transient() == true. It is how the shard isolation layer classifies a
// failure: transient errors retry with backoff, everything else is
// deterministic and surfaces on the first attempt.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// ShardError is the structured failure of one shard run: which policy and
// shard failed, how many attempts were made, the final classification, and
// the cause. A sharded Run/RunStreamed that cannot complete returns an
// errors.Join of one ShardError per failed shard (plus ErrInterrupted when
// the run was cancelled); callers unpack them with errors.As.
type ShardError struct {
	Policy    string // policy whose shard failed
	Shard     int    // shard index within the source
	Shards    int    // total shard count, for context in messages
	Attempts  int    // simulation attempts made (>= 1)
	Transient bool   // final classification of Err (true: retries were exhausted)
	Panicked  bool   // the last failure was a recovered panic, not an error return
	Err       error  // the last attempt's failure
}

func (e *ShardError) Error() string {
	kind := "deterministic"
	if e.Transient {
		kind = "transient (retries exhausted)"
	}
	if e.Panicked {
		kind += ", recovered panic"
	}
	return fmt.Sprintf("sim: policy %s shard %d/%d failed after %d attempt(s), %s: %v",
		e.Policy, e.Shard, e.Shards, e.Attempts, kind, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// RetryPolicy bounds the shard isolation layer's retries, on the shared
// jitterless schedule of internal/retry: a transient failure (IsTransient,
// or any recovered panic — a crash may be cured by a re-run, and re-running
// a pure shard simulation is always safe) re-runs the shard up to
// MaxAttempts times total, sleeping BaseDelay << (attempt-1) capped at
// MaxDelay between attempts. The zero value takes retry's defaults (3
// attempts, 5ms base, 250ms cap); a negative MaxAttempts disables retries
// (one attempt, still recovered and classified).
type RetryPolicy = retry.Policy

// ShardFaultHook is the fault-injection seam at the shard-worker boundary:
// when Options.FaultHook is set, the engine calls BeforeShard(shard,
// attempt) inside the worker immediately before simulating that shard
// (attempt counts from 1; cache hits skip simulation and the hook). The
// hook may sleep (an artificially slow shard) or panic (an injected worker
// crash) — the isolation layer must recover, classify, retry, and keep the
// run's results bit-identical whenever it completes, which is exactly what
// the fault-injection tests assert. internal/faultinject's Injector
// implements this interface with a seeded deterministic schedule.
type ShardFaultHook interface {
	BeforeShard(shard, attempt int)
}

// panicError carries a recovered panic value across the retry loop. All
// recovered panics are treated as retryable (see RetryPolicy): a
// deterministic panic simply exhausts the attempt budget and surfaces as a
// ShardError with Panicked set.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("shard worker panic: %v", e.val) }

func (e *panicError) Unwrap() error {
	if err, ok := e.val.(error); ok {
		return err
	}
	return nil
}

// retryShard is the isolation boundary around one shard's work: it recovers
// a panic in attempt, classifies transient vs deterministic, retries
// transients (and panics) per o.Retry with capped exponential backoff, and
// returns the final failure as a structured ShardError — or nil.
func (o Options) retryShard(policy string, shard, shards int, attempt func(n int) error) error {
	attempts := 0
	err := o.Retry.Do(func(n int) (err error) {
		attempts = n
		defer func() {
			if v := recover(); v != nil {
				err = &panicError{val: v}
			}
		}()
		return attempt(n)
	}, func(err error) bool { return isPanic(err) || IsTransient(err) })
	if err == nil {
		return nil
	}
	panicked := isPanic(err)
	return &ShardError{
		Policy: policy, Shard: shard, Shards: shards, Attempts: attempts,
		Transient: panicked || IsTransient(err), Panicked: panicked, Err: err,
	}
}

// isPanic reports whether err carries a recovered panic.
func isPanic(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}
