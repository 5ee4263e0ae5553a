package trace

import (
	"fmt"
	"hash/maphash"
)

// Population sharding: a trace can be viewed as P independent shards, each a
// self-contained Trace over a subset of the functions, so simulations can run
// one scheduler instance per shard concurrently and still merge to the exact
// unsharded result.
//
// The partitioning invariant is app affinity, closed over users: two
// functions sharing an application OR a user always land in the same shard.
// Applications staying whole keeps the Hybrid-application baseline and the
// app-wise experiments meaningful; closing over users additionally keeps
// every correlation-coupled pair together — offline link mining and online
// correlation only ever consider candidates sharing the target's app or
// user — which is what makes per-shard scheduling bit-identical to global
// scheduling. Within a shard, functions keep their global relative order, so
// order-sensitive tie-breaks (link ranking by FuncID) resolve identically.

// Partition assigns every function of a population to one of P shards,
// keeping app/user-coupled functions together. Build one with
// PartitionFunctions and derive per-shard trace views with Trace.ShardBy;
// the same Partition must be used for the training and simulation halves of
// a split trace (they share the same Functions slice, so partitioning either
// yields the same assignment).
type Partition struct {
	shardOf []int32    // FuncID -> shard index
	members [][]FuncID // shard index -> global FuncIDs, ascending
}

// PartitionFunctions groups fns into p correlation-closed shards: connected
// components of the "shares an application or a user" relation are assigned
// whole, round-robin in order of each component's first function, so the
// assignment is deterministic, independent of p's relation to the component
// count, and balanced for populations of many small components (the Azure
// workload's shape). It panics when p is not positive: the shard count is
// fixed configuration, not data.
func PartitionFunctions(fns []Function, p int) *Partition {
	if p <= 0 {
		panic(fmt.Sprintf("trace: partition needs a positive shard count, got %d", p))
	}
	n := len(fns)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Root at the smaller id so components stay identified by their
			// first function.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// Functions sharing an application, then a user, meet in one
	// open-addressed table of representatives, at most half full: a
	// function's key hashes to a slot and probes on from it, and the first
	// function found with an equal key is united with it; an empty slot
	// makes the function its key's representative. Unions commute, so the
	// components and their roots do not depend on the hash seed: the
	// partition is the same in every process, with no map keyed by string.
	size := 1
	for size < 2*n {
		size <<= 1
	}
	mask := uint64(size - 1)
	table := make([]int32, size)
	seed := maphash.MakeSeed()
	for _, key := range [...]func(int32) string{
		func(f int32) string { return fns[f].App },
		func(f int32) string { return fns[f].User },
	} {
		for i := range table {
			table[i] = -1
		}
		for f := int32(0); f < int32(n); f++ {
			k := key(f)
			for h := maphash.String(seed, k) & mask; ; h = (h + 1) & mask {
				if r := table[h]; r < 0 {
					table[h] = f
					break
				} else if key(r) == k {
					union(f, r)
					break
				}
			}
		}
	}

	part := &Partition{
		shardOf: make([]int32, n),
		members: make([][]FuncID, p),
	}
	// Every component is rooted at its smallest member, so an ascending scan
	// reaches each root before the rest of its component: a root takes the
	// next shard round-robin, in first-function order, and every other
	// member its root's. The per-shard member lists come out ascending with
	// no sort.
	next := int32(0)
	for i := 0; i < n; i++ {
		sh := next % int32(p)
		if root := find(int32(i)); root != int32(i) {
			sh = part.shardOf[root]
		} else {
			next++
		}
		part.shardOf[i] = sh
		part.members[sh] = append(part.members[sh], FuncID(i))
	}
	return part
}

// ShardOf returns the shard index function f belongs to.
func (p *Partition) ShardOf(f FuncID) int { return int(p.shardOf[f]) }

// Members returns shard i's global FuncIDs in ascending order. The returned
// slice is shared; callers must not mutate it.
func (p *Partition) Members(i int) []FuncID { return p.members[i] }

// ShardView is one shard of a trace: a self-contained Trace whose FuncIDs
// are dense local indices 0..m-1, plus the mapping back to the parent
// trace's global FuncIDs. Series slice headers are shared with the parent —
// no event data is copied — so a view costs O(functions in shard) memory
// regardless of invocation volume.
type ShardView struct {
	*Trace
	Index  int      // which shard of the partition this is
	Global []FuncID // local FuncID -> global FuncID, ascending
}

// ShardBy builds the view of shard i under part. Metadata is re-IDed into
// the local dense space; series are shared, not copied.
func (tr *Trace) ShardBy(part *Partition, i int) *ShardView {
	ids := part.Members(i)
	sub := NewTrace(tr.Slots)
	sub.Functions = make([]Function, len(ids))
	sub.Series = make([]Series, len(ids))
	for li, g := range ids {
		f := tr.Functions[g]
		f.ID = FuncID(li)
		sub.Functions[li] = f
		sub.Series[li] = tr.Series[g]
	}
	return &ShardView{Trace: sub, Index: i, Global: ids}
}
