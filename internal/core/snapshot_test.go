package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// snapshotTrace builds a mixed-behaviour population that exercises every
// serialized state family: a regular timer (predictive deadlines), an
// always-warm function, an erratic function (online-WT history and the
// adjusting strategy), and a same-trigger pair whose target is unseen in
// training (online correlation state).
func snapshotTrace(slots int) *trace.Trace {
	full := trace.NewTrace(slots)
	full.AddFunction("reg", "app-a", "u1", trace.TriggerTimer, periodicEvents(slots, 60, 30))
	aw := make([]trace.Event, 0, slots)
	for s := 0; s < slots; s++ {
		aw = append(aw, trace.Event{Slot: int32(s), Count: 1})
	}
	full.AddFunction("aw", "app-a", "u1", trace.TriggerTimer, aw)
	var err1 []trace.Event
	for _, s := range []int{3, 9, 40, 41, 100, 270, 271, 500, 900, 1500, 2100, 2900, 3600, 4200, 5000, 5800, 6600, 7400, 8200, 9000} {
		if s < slots {
			err1 = append(err1, trace.Event{Slot: int32(s), Count: 2})
		}
	}
	full.AddFunction("erratic", "app-b", "u2", trace.TriggerHTTP, err1)
	// Phase 60 puts the candidate's first simulated-window fire at sim slot
	// 20 — after the unseen target's first event (sim slot 12), which the
	// live-admission parity test needs: the newcomer must be admitted before
	// its candidates fire.
	full.AddFunction("cand", "app-c", "u3", trace.TriggerQueue, periodicEvents(slots, 200, 60))
	// The unseen target: silent through training, fires shortly after its
	// candidate in the simulated window.
	var tgt []trace.Event
	for s := 6*1440 + 12; s < slots; s += 200 {
		tgt = append(tgt, trace.Event{Slot: int32(s), Count: 1})
	}
	full.AddFunction("unseen", "app-c", "u3", trace.TriggerQueue, tgt)
	return full
}

// drainCompare ticks both policies through slot t with the same invocations
// and fails if their load/evict decisions (the delta streams) diverge.
func drainCompare(t *testing.T, slot int, invs []trace.FuncCount, a, b *SPES) {
	t.Helper()
	a.Tick(slot, invs)
	b.Tick(slot, invs)
	da, _ := a.TakeLoadDeltas()
	db, _ := b.TakeLoadDeltas()
	if len(da) != len(db) {
		t.Fatalf("slot %d: %d vs %d load deltas", slot, len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("slot %d: delta[%d] = %d vs %d", slot, i, da[i], db[i])
		}
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	idx := simTr.BuildSlotIndex()

	orig := New(DefaultConfig())
	orig.Train(train)
	half := simTr.Slots / 2
	for s := 0; s < half; s++ {
		orig.Tick(s, idx.Invocations[s])
	}
	orig.TakeLoadDeltas()

	data, err := orig.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	restored := New(DefaultConfig())
	if err := restored.RestoreState(data); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	ho, err := orig.StateHash()
	if err != nil {
		t.Fatalf("StateHash(orig): %v", err)
	}
	hr, err := restored.StateHash()
	if err != nil {
		t.Fatalf("StateHash(restored): %v", err)
	}
	if ho != hr {
		t.Fatalf("restored state hash %016x != original %016x", hr, ho)
	}

	// The restored instance must keep making the original's decisions, slot
	// for slot, through the rest of the simulation.
	for s := half; s < simTr.Slots; s++ {
		drainCompare(t, s, idx.Invocations[s], orig, restored)
	}
	ho, _ = orig.StateHash()
	hr, _ = restored.StateHash()
	if ho != hr {
		t.Fatalf("post-continuation hash %016x != %016x: restored instance diverged", hr, ho)
	}
}

func TestStateSnapshotRejectsDamage(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	orig := New(DefaultConfig())
	orig.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < 200; s++ {
		orig.Tick(s, idx.Invocations[s])
	}
	orig.TakeLoadDeltas()
	data, err := orig.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}

	if err := New(DefaultConfig()).RestoreState(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot restored without error")
	}
	if err := New(DefaultConfig()).RestoreState(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("snapshot with trailing bytes restored without error")
	}
	other := DefaultConfig()
	other.Classify.ThetaPrewarm += 1
	if err := New(other).RestoreState(data); err == nil {
		t.Error("snapshot restored under a different config")
	}
	if err := orig.RestoreState(data); err == nil {
		t.Error("RestoreState succeeded on an already-trained policy")
	}
}

// TestEncodeStateGoldenBytes pins the state blob to a digest recorded from
// the encoder before it moved onto internal/durable: the blob travels inside
// serve snapshots already on disk, so its bytes must not move.
func TestEncodeStateGoldenBytes(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	p := New(DefaultConfig())
	p.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < 200; s++ {
		p.Tick(s, idx.Invocations[s])
	}
	p.TakeLoadDeltas()
	data, err := p.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	const want = "1c77532347b9b004317b4f97fbcbc27364641fd62dcbe0b888e933315991d181"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != 1019 || got != want {
		t.Fatalf("state blob is %d bytes hashing to %s, want 1019 bytes hashing to %s", len(data), got, want)
	}
}

// TestStateConfigHashCoversEveryField flips every field of Config and of
// classify.Config in turn and requires the blob's config hash to move: the
// hash is taken over a frozen field list (st1ConfigType), so a field added to
// either struct without a decision about the blob fails here instead of
// letting a snapshot restore under a config it was not taken with.
func TestStateConfigHashCoversEveryField(t *testing.T) {
	cfg := DefaultConfig()
	base := st1ConfigHash(cfg)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Struct:
				walk(name+".", f)
				continue
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			default:
				t.Fatalf("%s: kind %s needs a flip rule here", name, f.Kind())
			}
			if st1ConfigHash(cfg) == base {
				t.Errorf("%s does not reach the state blob's config hash", name)
			}
			f.Set(old)
		}
	}
	walk("", reflect.ValueOf(&cfg).Elem())
	if st1ConfigHash(cfg) != base {
		t.Fatal("walk did not restore the config")
	}
}

// TestRestoreStateBoundsClaimedCounts: a count read from the blob is checked
// against the bytes left before anything is sized by it — a 40-byte header
// claiming 2^31 functions and an int slice claiming 2^61 entries must both be
// refused with an error, not a multi-gigabyte allocation or a makeslice
// panic.
func TestRestoreStateBoundsClaimedCounts(t *testing.T) {
	header := func(n int64) []byte {
		b := []byte(snapMagic)
		b = binary.LittleEndian.AppendUint64(b, sim.HashConfig(DefaultConfig()))
		b = binary.LittleEndian.AppendUint64(b, 1440) // trainSlots
		b = binary.LittleEndian.AppendUint64(b, 0)    // lastTick
		return binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	i64 := func(b []byte, vs ...int64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}

	huge := header(1 << 31)
	if len(huge) != 40 {
		t.Fatalf("header is %d bytes, want 40", len(huge))
	}
	// One function whose profile.Values slice claims 2^61 entries, padded so
	// the function count itself passes the bound.
	ints := i64(header(1), 0, 0, 0) // empty name, app, user
	ints = append(ints, 0)          // trigger
	ints = i64(ints, 0, 0, 0)       // lastInvoked, eventSlot, seq
	ints = append(ints, 0)          // loaded
	ints = i64(ints, 0, 0)          // preloadUntil, wtOff
	ints = append(ints, 0)          // profile type
	ints = i64(ints, 1<<61)         // len(profile.Values)
	ints = append(ints, make([]byte, 2*stateMinFuncBytes)...)

	for name, blob := range map[string][]byte{"2^31 functions": huge, "2^61 ints": ints} {
		if err := New(DefaultConfig()).RestoreState(blob); err == nil {
			t.Errorf("%s: blob restored without error", name)
		}
	}
}

func TestEncodeStateRequiresDrainedDeltas(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	p := New(DefaultConfig())
	p.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < 60; s++ {
		p.Tick(s, idx.Invocations[s])
	}
	// Deltas pending: the caller's accounting has not seen these flips yet.
	if _, err := p.EncodeState(); err == nil {
		t.Fatal("EncodeState succeeded with unconsumed load deltas")
	}
	p.TakeLoadDeltas()
	if _, err := p.EncodeState(); err != nil {
		t.Fatalf("EncodeState after draining deltas: %v", err)
	}
}

// TestAdmitMatchesBatchRun is the live-admission parity test: a function the
// daemon first hears about mid-stream (Admit) must end in exactly the state
// — wheel deadline included — it would have had in a batch run whose trace
// always contained it, given the same invocation history. Retrain boundaries
// run in both timelines so the newcomer is categorized via the Retrainer
// path, not just seeded.
func TestAdmitMatchesBatchRun(t *testing.T) {
	slots := 8 * 1440
	trainSlots := 6 * 1440
	full := snapshotTrace(slots) // function 4 ("unseen") is silent in training
	fullTrain, simTr := full.Split(trainSlots)
	idx := simTr.BuildSlotIndex()

	// The live timeline's training trace omits the newcomer entirely.
	liveTrain := trace.NewTrace(trainSlots)
	for fid := 0; fid < 4; fid++ {
		f := fullTrain.Functions[fid]
		ev := make([]trace.Event, len(fullTrain.Series[fid]))
		copy(ev, fullTrain.Series[fid])
		liveTrain.AddFunction(f.Name, f.App, f.User, f.Trigger, ev)
	}

	newcomer := trace.FuncID(4)
	firstSeen := int(simTr.Series[newcomer][0].Slot)
	cfg := DefaultConfig()
	retrainEvery := 1440
	window := func(at int) *trace.Trace {
		return sim.BuildRetrainWindow(fullTrain, simTr, at, trainSlots)
	}

	batch := New(cfg)
	batch.Train(fullTrain)
	live := New(cfg)
	live.Train(liveTrain)

	for s := 0; s < simTr.Slots; s++ {
		if s == firstSeen {
			if got := live.Admit(full.Functions[newcomer]); got != newcomer {
				t.Fatalf("Admit assigned id %d, want %d", got, newcomer)
			}
		}
		if s > 0 && s%retrainEvery == 0 {
			w := window(s)
			batch.Retrain(s, w)
			live.Retrain(s, w)
		}
		drainCompare(t, s, idx.Invocations[s], batch, live)
	}

	hb, err := batch.StateHash()
	if err != nil {
		t.Fatalf("StateHash(batch): %v", err)
	}
	hl, err := live.StateHash()
	if err != nil {
		t.Fatalf("StateHash(live): %v", err)
	}
	if hb != hl {
		t.Fatalf("live-admission state hash %016x != batch %016x", hl, hb)
	}
}
