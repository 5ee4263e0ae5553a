package trace

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// refShard is the reference for GenLayout.Shard: the generator's shard loop
// with nothing reused. Every function gets a fresh RNG and fresh slices
// (the synthesizers are called with a nil dst), its series is normalized in
// place by Trace.AddFunction, and the full shard is cut by splitRef, the
// copying form of Trace.Split. It pins what production's scratch reuse,
// driver-buffer rule, exact-size copies and direct split must reproduce,
// not the synthesizers themselves.
//
// coalesced counts the chain drivers whose followers read a buffer that
// normalize shortened: a duplicate slot coalesced and left a stale tail.
func refShard(l *GenLayout, i, p, at int) (train, sim *ShardView, coalesced int) {
	sh := &ShardView{Trace: NewTrace(l.slots), Index: i}
	for _, a := range l.apps {
		if int(a.user)%p != i {
			continue
		}
		user := fmt.Sprintf("user%05d", a.user)
		app := fmt.Sprintf("app%06d", a.app)
		var driverEvents []Event
		driverActive := false
		for k := 0; k < int(a.size); k++ {
			fid := int(a.first) + k
			fg := stats.NewRNG(l.seeds[fid])
			trig := l.trigs[fid]
			name := fmt.Sprintf("%s-f%02d", app, k)

			var events []Event
			if a.chained && k > 0 && driverActive {
				events = chainFollower(nil, fg, driverEvents, l.slots)
			} else {
				arch := Archetype(fg.WeightedChoice(archetypeMixFor(trig)))
				events = synthesize(nil, arch, fg, l.slots)
				if l.cfg.ShiftFraction > 0 && fg.Bool(l.cfg.ShiftFraction) {
					events = applyShift(fg, events, l.slots)
				}
				if k == 0 {
					driverActive = len(events) > 0
				}
				events = l.cfg.Scenario.transform(stats.NewRNG(0), FuncID(fid), events, l.slots)
				if k == 0 {
					driverEvents = events
				}
			}
			// AddFunction normalizes events in place; driverEvents keeps its
			// pre-normalize length, so followers see the stale tail.
			id := sh.Trace.AddFunction(name, app, user, trig, events)
			if k == 0 && a.chained && a.size > 1 && driverActive && len(sh.Trace.Series[id]) < len(driverEvents) {
				coalesced++
			}
			sh.Global = append(sh.Global, FuncID(fid))
		}
	}
	if at == 0 {
		return nil, sh, coalesced
	}
	tr, sm := splitRef(sh.Trace, at)
	return &ShardView{Trace: tr, Index: i, Global: sh.Global},
		&ShardView{Trace: sm, Index: i, Global: sh.Global}, coalesced
}

// sameShardView reports the first difference between two views, or "".
func sameShardView(got, want *ShardView) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("view presence: got %v, want %v", got != nil, want != nil)
	case got == nil:
		return ""
	case got.Index != want.Index || got.Slots != want.Slots:
		return fmt.Sprintf("index/slots: got %d/%d, want %d/%d", got.Index, got.Slots, want.Index, want.Slots)
	case !reflect.DeepEqual(got.Global, want.Global):
		return "global ids"
	case !reflect.DeepEqual(got.Functions, want.Functions):
		return "function metadata"
	}
	for li := range want.Series {
		if !reflect.DeepEqual(got.Series[li], want.Series[li]) {
			return fmt.Sprintf("series of local f%d (global %d)", li, want.Global[li])
		}
	}
	if len(got.Series) != len(want.Series) {
		return "series count"
	}
	return ""
}

// TestShardProductionMatchesReference holds GenLayout.Shard to refShard over
// the stationary workload and the four library scenarios, two seeds each, at
// 1, 3 and 16 shards, unsplit and split at the scenario's train/sim
// boundary (-short keeps p = 3 over half the population). At least one case
// must hand chain followers a driver buffer with a coalesced duplicate
// slot: that stale tail is part of every steady trace, so the case has to
// be exercised, not assumed (seed 2 has one at either population size).
func TestShardProductionMatchesReference(t *testing.T) {
	const days, trainDays = 4, 3
	functions, shardCounts := 240, []int{1, 3, 16}
	if testing.Short() {
		functions, shardCounts = 120, []int{3}
	}
	var coalesced atomic.Int64
	t.Run("scenarios", func(t *testing.T) {
		for _, name := range ScenarioNames() {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, seed := range []int64{1, 2} {
					cfg := DefaultGeneratorConfig(functions, days, seed)
					sc, err := NamedScenario(name, trainDays*1440, days*1440)
					if err != nil {
						t.Fatal(err)
					}
					sc.Seed = seed
					cfg.Scenario = sc.Normalize()
					l, err := BuildGenLayout(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range shardCounts {
						for i := 0; i < p; i++ {
							for _, at := range []int{0, trainDays * 1440} {
								wantTrain, wantSim, n := refShard(l, i, p, at)
								gotTrain, gotSim, err := l.Shard(i, p, at)
								if err != nil {
									t.Fatal(err)
								}
								if d := sameShardView(gotTrain, wantTrain); d != "" {
									t.Fatalf("seed %d p=%d shard %d at=%d: train differs: %s", seed, p, i, at, d)
								}
								if d := sameShardView(gotSim, wantSim); d != "" {
									t.Fatalf("seed %d p=%d shard %d at=%d: sim differs: %s", seed, p, i, at, d)
								}
								coalesced.Add(int64(n))
							}
						}
					}
				}
			})
		}
	})
	if !t.Failed() && coalesced.Load() == 0 {
		t.Fatal("no chain driver coalesced a duplicate slot; the driver-buffer rule was not exercised")
	}
	t.Logf("%d cases handed followers a coalesced driver buffer", coalesced.Load())
}

// TestShardSplitPointRange pins Shard's split-point contract.
func TestShardSplitPointRange(t *testing.T) {
	l, err := BuildGenLayout(DefaultGeneratorConfig(20, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{-1, 1440} {
		if _, _, err := l.Shard(0, 1, at); err == nil {
			t.Errorf("split point %d accepted", at)
		}
	}
}

// TestAppendPaddedMatchesSprintf holds the name renderer to the fmt verbs it
// replaces, including values wider than the pad.
func TestAppendPaddedMatchesSprintf(t *testing.T) {
	for _, width := range []int{2, 5, 6} {
		for _, v := range []int{0, 7, 42, 99, 100, 12345, 99999, 100000, 999999, 1000000, 1<<31 - 1} {
			want := fmt.Sprintf("%0*d", width, v)
			if got := string(appendPadded([]byte("x"), v, width)); got != "x"+want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", v, width, got, "x"+want)
			}
		}
	}
}
