package core

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/trace"
)

// corrFixture builds a trained SPES over three same-trigger, same-app
// functions where function 2 is unseen (silent in training).
func corrFixture(t *testing.T) *SPES {
	t.Helper()
	tr := trace.NewTrace(2000)
	events := []trace.Event{{Slot: 100, Count: 1}, {Slot: 900, Count: 1}, {Slot: 1500, Count: 1}}
	tr.AddFunction("cand0", "app", "u", trace.TriggerQueue, events)
	tr.AddFunction("cand1", "app", "u", trace.TriggerQueue, events)
	tr.AddFunction("unseen", "app", "u", trace.TriggerQueue, nil)
	cfg := DefaultConfig()
	// These tests exercise online correlation in isolation and drive Tick
	// with slot gaps; disable the adjusting strategy so the target cannot be
	// promoted to newly-possible mid-test and start predictive pre-warming.
	cfg.DisableAdjusting = true
	s := New(cfg)
	s.Train(tr)
	if s.ucorr == nil {
		t.Fatal("online correlation not armed")
	}
	if s.ucorr.targets[2] == nil {
		t.Fatal("unseen function not registered")
	}
	return s
}

func TestOnlineCorrRegistersSameTriggerCandidates(t *testing.T) {
	s := corrFixture(t)
	tgt := s.ucorr.targets[2]
	if len(tgt.cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(tgt.cands))
	}
	// A different-trigger function must not be selected.
	tr := trace.NewTrace(2000)
	tr.AddFunction("cand0", "app", "u", trace.TriggerQueue, []trace.Event{{Slot: 1, Count: 1}})
	tr.AddFunction("other", "app", "u", trace.TriggerTimer, []trace.Event{{Slot: 1, Count: 1}})
	tr.AddFunction("unseen", "app", "u", trace.TriggerQueue, nil)
	s2 := New(DefaultConfig())
	s2.Train(tr)
	tgt2 := s2.ucorr.targets[2]
	if tgt2 == nil || len(tgt2.cands) != 1 || tgt2.cands[0].fid != 0 {
		t.Errorf("same-trigger filter failed: %+v", tgt2)
	}
}

func TestOnlineCorrPreloadsOnCandidateFire(t *testing.T) {
	s := corrFixture(t)
	// Candidate 0 fires at sim slot 5: the unseen target pre-loads.
	s.Tick(5, []trace.FuncCount{{Func: 0, Count: 1}})
	if !s.Loaded(2) {
		t.Fatal("unseen target not pre-loaded on candidate fire")
	}
	// It stays resident through the lag window, then unloads.
	for t0 := 6; t0 <= 5+classify.MaxCORLag; t0++ {
		s.Tick(t0, nil)
		if !s.Loaded(2) {
			t.Fatalf("target evicted at slot %d, inside the hold window", t0)
		}
	}
	s.Tick(5+classify.MaxCORLag+1, nil)
	if s.Loaded(2) {
		t.Fatal("target still loaded past the hold window")
	}
}

func TestOnlineCorrDropsUncorrelatedCandidate(t *testing.T) {
	s := corrFixture(t)
	// Candidate 0 reliably precedes the target by 1 slot; candidate 1 fires
	// far from the target. After enough observations candidate 1's COR
	// falls out of the slack band and stops triggering pre-loads.
	t0 := 0
	for round := 0; round < 12; round++ {
		s.Tick(t0, []trace.FuncCount{{Func: 0, Count: 1}})
		s.Tick(t0+1, []trace.FuncCount{{Func: 2, Count: 1}})
		// Candidate 1 fires in isolation much later.
		s.Tick(t0+60, []trace.FuncCount{{Func: 1, Count: 1}})
		t0 += 120
	}
	tgt := s.ucorr.targets[2]
	var c0, c1 *ucandidate
	for i := range tgt.cands {
		switch tgt.cands[i].fid {
		case 0:
			c0 = &tgt.cands[i]
		case 1:
			c1 = &tgt.cands[i]
		}
	}
	if c0 == nil || c1 == nil {
		t.Fatal("candidates missing")
	}
	if !s.ucorr.active(tgt, c0) {
		t.Error("reliable candidate dropped")
	}
	if s.ucorr.active(tgt, c1) {
		t.Error("uncorrelated candidate still active")
	}
	// An isolated candidate-1 fire must no longer pre-load the target.
	s.Tick(t0, []trace.FuncCount{{Func: 1, Count: 1}})
	s.Tick(t0+1, nil) // target idle; theta-givenup(unknown)=1 evicts immediately
	if s.Loaded(2) {
		t.Error("dropped candidate still pre-loads the target")
	}
}

func TestOnlineCorrDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableOnlineCorr = true
	tr := trace.NewTrace(2000)
	tr.AddFunction("cand", "app", "u", trace.TriggerQueue, []trace.Event{{Slot: 1, Count: 1}})
	tr.AddFunction("unseen", "app", "u", trace.TriggerQueue, nil)
	s := New(cfg)
	s.Train(tr)
	if s.ucorr != nil {
		t.Fatal("online correlation armed despite DisableOnlineCorr")
	}
	s.Tick(0, []trace.FuncCount{{Func: 0, Count: 1}})
	if s.Loaded(1) {
		t.Error("unseen target pre-loaded with online correlation disabled")
	}
}

func TestOnlineCorrCandidateCap(t *testing.T) {
	const peers = onlineCandidateCap + 5
	tr := trace.NewTrace(100)
	for i := 0; i < peers; i++ {
		tr.AddFunction("cand", "app", "u", trace.TriggerQueue, []trace.Event{{Slot: 1, Count: 1}})
	}
	tr.AddFunction("unseen", "app", "u", trace.TriggerQueue, nil)
	s := New(DefaultConfig())
	s.Train(tr)
	tgt := s.ucorr.targets[peers]
	if tgt == nil || len(tgt.cands) != onlineCandidateCap {
		t.Fatalf("candidate cap not applied: %+v", tgt)
	}
}

func TestOnlineCorrNoCandidates(t *testing.T) {
	tr := trace.NewTrace(100)
	tr.AddFunction("lonely", "app", "u", trace.TriggerStorage, nil)
	tr.AddFunction("other", "app2", "u2", trace.TriggerTimer, []trace.Event{{Slot: 1, Count: 1}})
	s := New(DefaultConfig())
	s.Train(tr)
	if s.ucorr.targets[0] != nil {
		t.Error("function without same-trigger peers should not register")
	}
}
