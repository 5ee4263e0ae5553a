package sim

import (
	"errors"
	"fmt"
)

// This file is the failure-semantics layer of the sharded engine: the
// structured ShardError the engine surfaces and the isolation boundary that
// produces it. DESIGN.md "Failure semantics" is the prose form of the
// contracts here.

// ErrNotShardable is the sentinel wrapped by the refusal a sharded or
// streamed run returns when its policy implements neither ShardedPolicy
// (independent per-shard instances) nor CapacityPolicy (one instance over
// the whole population). Callers branch on it with errors.Is — it also
// survives RunAll's per-policy wrapping — typically to fall back to an
// unsharded run rather than report a failure.
var ErrNotShardable = errors.New("sim: policy not shardable")

// ShardError is the structured failure of one shard: which policy and shard
// failed, whether the failure was a recovered panic, and the cause. A
// sharded Run/RunStreamed that cannot complete returns an errors.Join of one
// ShardError per failed shard; callers unpack them with errors.As.
type ShardError struct {
	Policy   string // policy whose shard failed
	Shard    int    // shard index within the source
	Shards   int    // total shard count, for context in messages
	Panicked bool   // the failure was a recovered panic, not an error return
	Err      error  // the failure
}

func (e *ShardError) Error() string {
	kind := "error"
	if e.Panicked {
		kind = "recovered panic"
	}
	return fmt.Sprintf("sim: policy %s shard %d/%d failed (%s): %v",
		e.Policy, e.Shard, e.Shards, kind, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// panicError carries a recovered panic value on the normal error path.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("shard worker panic: %v", e.val) }

func (e *panicError) Unwrap() error {
	if err, ok := e.val.(error); ok {
		return err
	}
	return nil
}

// isolateShard is the isolation boundary around one shard's work: it runs
// work once, recovers a panic in it, and returns the failure as a
// structured ShardError — or nil. There is no second attempt: a shard's
// production and simulation are pure functions of their inputs, so a re-run
// would fail the same way.
func isolateShard(policy string, shard, shards int, work func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &ShardError{Policy: policy, Shard: shard, Shards: shards, Panicked: true, Err: &panicError{val: v}}
		}
	}()
	if err := work(); err != nil {
		return &ShardError{Policy: policy, Shard: shard, Shards: shards, Err: err}
	}
	return nil
}
