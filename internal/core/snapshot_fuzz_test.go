package core

import "testing"

// FuzzRestoreState holds RestoreState to its contract on any blob: it
// returns an error or restores a policy, never panics, and a policy it
// restores re-encodes to a blob that restores to the same StateHash. The
// seeds are EncodeState of a trained policy at three slots.
func FuzzRestoreState(f *testing.F) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	p := New(DefaultConfig())
	p.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s <= 600; s++ {
		if s == 0 || s == 200 || s == 600 {
			p.TakeLoadDeltas()
			blob, err := p.EncodeState()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
		p.Tick(s, idx.Invocations[s])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		p := New(DefaultConfig())
		if p.RestoreState(blob) != nil {
			return
		}
		want, err := p.StateHash()
		if err != nil {
			t.Fatalf("a restored policy does not encode: %v", err)
		}
		again, err := p.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		q := New(DefaultConfig())
		if err := q.RestoreState(again); err != nil {
			t.Fatalf("the re-encoded blob does not restore: %v", err)
		}
		if got, _ := q.StateHash(); got != want {
			t.Fatalf("the re-encoded blob restores to hash %016x, want %016x", got, want)
		}
	})
}
