package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestDenseReferenceIsOnlyAReference: the reference must not be shardable,
// cacheable, idle-skippable or snapshottable — by its method set, not by a
// value someone can set.
func TestDenseReferenceIsOnlyAReference(t *testing.T) {
	var p sim.Policy = NewDenseReference(DefaultConfig())
	if _, ok := p.(sim.ShardedPolicy); ok {
		t.Error("DenseReference implements sim.ShardedPolicy")
	}
	if _, ok := p.(sim.ConfigHasher); ok {
		t.Error("DenseReference implements sim.ConfigHasher")
	}
	if _, ok := p.(sim.IdleSkipper); ok {
		t.Error("DenseReference implements sim.IdleSkipper")
	}
	if _, ok := p.(interface{ EncodeState() ([]byte, error) }); ok {
		t.Error("DenseReference has EncodeState")
	}
}

// TestDenseReferenceMatchesSPES ticks both engines over the snapshot
// population and compares the loaded set and the categories slot by slot;
// the root equivalence suite holds full Results equal at scale.
func TestDenseReferenceMatchesSPES(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	ev, ref := New(DefaultConfig()), NewDenseReference(DefaultConfig())
	ev.Train(train)
	ref.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < simTr.Slots; s++ {
		ev.Tick(s, idx.Invocations[s])
		ref.Tick(s, idx.Invocations[s])
		if ev.LoadedCount() != ref.LoadedCount() {
			t.Fatalf("slot %d: loaded count event=%d dense=%d", s, ev.LoadedCount(), ref.LoadedCount())
		}
		for f := 0; f < simTr.NumFunctions(); f++ {
			fid := trace.FuncID(f)
			if ev.Loaded(fid) != ref.Loaded(fid) || ev.TypeOf(fid) != ref.TypeOf(fid) {
				t.Fatalf("slot %d f%d: event loaded=%v type=%s, dense loaded=%v type=%s",
					s, f, ev.Loaded(fid), ev.TypeOf(fid), ref.Loaded(fid), ref.TypeOf(fid))
			}
		}
	}
}
