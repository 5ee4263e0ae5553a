package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPartitionKeepsAppsAndUsersWhole asserts the partitioning invariant:
// functions sharing an application or a user never cross a shard boundary.
func TestPartitionKeepsAppsAndUsersWhole(t *testing.T) {
	tr, err := Generate(DefaultGeneratorConfig(500, 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 7, 16} {
		part := PartitionFunctions(tr.Functions, p)
		appShard := make(map[string]int)
		userShard := make(map[string]int)
		for fid, f := range tr.Functions {
			sh := part.ShardOf(FuncID(fid))
			if sh < 0 || sh >= p {
				t.Fatalf("p=%d: f%d assigned to shard %d", p, fid, sh)
			}
			if prev, ok := appShard[f.App]; ok && prev != sh {
				t.Fatalf("p=%d: app %s split across shards %d and %d", p, f.App, prev, sh)
			}
			appShard[f.App] = sh
			if prev, ok := userShard[f.User]; ok && prev != sh {
				t.Fatalf("p=%d: user %s split across shards %d and %d", p, f.User, prev, sh)
			}
			userShard[f.User] = sh
		}
		// Members lists cover the population exactly once, ascending.
		seen := 0
		for i := 0; i < p; i++ {
			ids := part.Members(i)
			for k, id := range ids {
				if part.ShardOf(id) != i {
					t.Fatalf("p=%d: member %d listed in shard %d but assigned to %d", p, id, i, part.ShardOf(id))
				}
				if k > 0 && ids[k-1] >= id {
					t.Fatalf("p=%d shard %d: members not ascending at %d", p, i, k)
				}
			}
			seen += len(ids)
		}
		if seen != tr.NumFunctions() {
			t.Fatalf("p=%d: members cover %d functions, want %d", p, seen, tr.NumFunctions())
		}
	}
}

// TestPartitionCouplesSharedUsers builds a population where one user owns
// two apps: both apps must land in the same shard even though they are
// distinct components by app alone.
func TestPartitionCouplesSharedUsers(t *testing.T) {
	tr := NewTrace(10)
	tr.AddFunction("f0", "appA", "u1", TriggerHTTP, nil)
	tr.AddFunction("f1", "appB", "u2", TriggerHTTP, nil)
	tr.AddFunction("f2", "appC", "u1", TriggerHTTP, nil) // same user as f0
	part := PartitionFunctions(tr.Functions, 2)
	if part.ShardOf(0) != part.ShardOf(2) {
		t.Fatalf("user u1's apps split: f0 in %d, f2 in %d", part.ShardOf(0), part.ShardOf(2))
	}
	if part.ShardOf(0) == part.ShardOf(1) {
		t.Fatal("independent components not spread over 2 shards")
	}
}

// TestShardViewSharesSeries verifies the zero-copy contract: a shard view's
// series alias the parent trace's backing arrays.
func TestShardViewSharesSeries(t *testing.T) {
	tr, err := Generate(DefaultGeneratorConfig(120, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range tr.Shards(3) {
		if sh.NumFunctions() != len(sh.Global) {
			t.Fatalf("shard %d: %d functions but %d global ids", sh.Index, sh.NumFunctions(), len(sh.Global))
		}
		for li, g := range sh.Global {
			if sh.Functions[li].ID != FuncID(li) {
				t.Fatalf("shard %d: local id %d mislabelled %d", sh.Index, li, sh.Functions[li].ID)
			}
			if sh.Functions[li].Name != tr.Functions[g].Name {
				t.Fatalf("shard %d: f%d metadata mismatch", sh.Index, li)
			}
			if len(sh.Series[li]) > 0 && &sh.Series[li][0] != &tr.Series[g][0] {
				t.Fatalf("shard %d: f%d series copied instead of shared", sh.Index, li)
			}
		}
	}
}

// TestGenerateShardMatchesShardedGenerate is the streaming-generation
// equivalence: GenerateShard(cfg, i, p) must produce exactly
// Generate(cfg).Shard(i, p) — metadata, series, and global id mapping —
// for every shard, so shard-streamed traces are interchangeable with
// materialized ones.
func TestGenerateShardMatchesShardedGenerate(t *testing.T) {
	cfg := DefaultGeneratorConfig(400, 2, 5)
	full, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		part := PartitionFunctions(full.Functions, p)
		total := 0
		for i := 0; i < p; i++ {
			want := full.ShardBy(part, i)
			got, err := GenerateShard(cfg, i, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Global, want.Global) {
				t.Fatalf("p=%d shard %d: global ids differ: got %d want %d functions",
					p, i, len(got.Global), len(want.Global))
			}
			if !reflect.DeepEqual(got.Functions, want.Functions) {
				t.Fatalf("p=%d shard %d: function metadata differs", p, i)
			}
			if !reflect.DeepEqual(got.Series, want.Series) {
				t.Fatalf("p=%d shard %d: series differ", p, i)
			}
			total += got.NumFunctions()
		}
		if total != full.NumFunctions() {
			t.Fatalf("p=%d: shards cover %d functions, want %d", p, total, full.NumFunctions())
		}
	}
}

// TestShardSplitConsistency checks the train/sim workflow: sharding the two
// halves of a Split with one partition yields views that still describe the
// same sub-population in the same order.
func TestShardSplitConsistency(t *testing.T) {
	tr, err := Generate(DefaultGeneratorConfig(300, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	train, simTr := tr.Split(2 * 1440)
	part := PartitionFunctions(simTr.Functions, 4)
	for i := 0; i < 4; i++ {
		a, b := train.ShardBy(part, i), simTr.ShardBy(part, i)
		if !reflect.DeepEqual(a.Global, b.Global) {
			t.Fatalf("shard %d: train/sim global ids diverge", i)
		}
		if a.Slots != train.Slots || b.Slots != simTr.Slots {
			t.Fatalf("shard %d: slots not preserved", i)
		}
	}
}

// TestTracegenShardedCSVRoundTrip covers the shard-streamed CSV path
// (cmd/tracegen -shards): concatenating per-shard WriteCSV sections must
// load back to exactly the full trace's function set and series, keyed by
// (user, app, name). The FuncID space of the loaded trace is a permutation
// of the unsharded one (ReadCSV assigns ids by first appearance, and shard
// sections reorder rows), so the assertion is content equality per
// function, NOT id-order equality — simulations over the two files are the
// same workload but not bit-comparable.
func TestTracegenShardedCSVRoundTrip(t *testing.T) {
	cfg := DefaultGeneratorConfig(250, 2, 17)
	full, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	const p = 3
	for i := 0; i < p; i++ {
		sh, err := GenerateShard(cfg, i, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&buf, sh.Trace); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFunctions() != full.NumFunctions() {
		t.Fatalf("loaded %d functions, want %d", got.NumFunctions(), full.NumFunctions())
	}
	if got.Slots != full.Slots {
		t.Fatalf("loaded %d slots, want %d", got.Slots, full.Slots)
	}

	key := func(f Function) string { return f.User + "/" + f.App + "/" + f.Name }
	want := make(map[string]Series, full.NumFunctions())
	for fid, f := range full.Functions {
		want[key(f)] = full.Series[fid]
	}
	for fid, f := range got.Functions {
		ws, ok := want[key(f)]
		if !ok {
			t.Fatalf("loaded unknown function %s", key(f))
		}
		if !reflect.DeepEqual(got.Series[fid], ws) {
			t.Fatalf("series differ for %s", key(f))
		}
	}
}

// TestGenLayoutReuseMatchesPerCallGeneration covers the shared-layout path
// sim.GeneratorSource rides: one BuildGenLayout serving every Shard(i, p)
// call — including repeated calls for the same i — must reproduce the
// per-call GenerateShard (which rebuilds the layout each time) exactly.
func TestGenLayoutReuseMatchesPerCallGeneration(t *testing.T) {
	cfg := DefaultGeneratorConfig(300, 2, 9)
	l, err := BuildGenLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumFunctions() != cfg.Functions {
		t.Fatalf("layout holds %d functions, want %d", l.NumFunctions(), cfg.Functions)
	}
	const p = 3
	for i := 0; i < p; i++ {
		want, err := GenerateShard(cfg, i, p)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ { // repeated calls must be identical
			_, got, err := l.Shard(i, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Global, want.Global) ||
				!reflect.DeepEqual(got.Functions, want.Functions) ||
				!reflect.DeepEqual(got.Series, want.Series) {
				t.Fatalf("shard %d rep %d: shared-layout shard differs from per-call generation", i, rep)
			}
		}
	}
	if _, _, err := l.Shard(p, p, 0); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}
