package classify

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/series"
	"repro/internal/trace"
)

// sameActivity reports whether two activities describe the same sequence.
// The descriptors are compared by content: the sparse path hands out views
// into scratch where series.Extract leaves an absent descriptor nil.
func sameActivity(a, b series.Activity) bool {
	return slices.Equal(a.WT, b.WT) && slices.Equal(a.AT, b.AT) && slices.Equal(a.AN, b.AN) &&
		a.Slots == b.Slots && a.Invocations == b.Invocations
}

// checkWindowExtraction holds both sparse extraction paths to the dense
// reference at one window start: extractWindow(s, start, slots-start) and
// the full-window extraction's suffix(start) must each reproduce
// series.Extract(dense[start:]), for every reading of s (readings).
func checkWindowExtraction(t *testing.T, s trace.Series, reads []trace.Parts, slots, start int) {
	t.Helper()
	want := series.Extract(s.Dense(slots)[start:])
	for k, ps := range reads {
		var w scratch
		if got := w.extractWindow(ps, start, slots-start); !sameActivity(got, want) {
			t.Fatalf("extractWindow(start=%d of %d, reading %d) = %+v, series.Extract = %+v\nseries %v", start, slots, k, got, want, s)
		}

		if len(s) == 0 {
			return // Categorize never builds run metadata for a silent function
		}
		var full, cut scratch
		se := full.extractMeta(ps, slots, full.extractWindow(ps, 0, slots))
		if got := se.suffix(&cut, start); !sameActivity(got, want) {
			t.Fatalf("suffix(start=%d of %d, reading %d) = %+v, series.Extract = %+v\nseries %v", start, slots, k, got, want, s)
		}
	}
}

// readings returns s read as one part, then as two parts split before
// each event index k (reading k+1) and after the last.
func readings(s trace.Series) []trace.Parts {
	reads := []trace.Parts{one(s)}
	for k := 0; k <= len(s); k++ {
		reads = append(reads, split(s, k))
	}
	return reads
}

// seriesFromBytes decodes a fuzz input into a valid series: each byte pair
// is one event — the low six bits of the first byte the idle gap before it
// (0 extends the current run), the second byte its count. It returns the
// series and a window length that leaves tail idle slots after the last
// event.
func seriesFromBytes(data []byte, tail int) (trace.Series, int) {
	var s trace.Series
	slot := -1
	for i := 0; i+1 < len(data); i += 2 {
		slot += 1 + int(data[i]&0x3f)
		s = append(s, trace.Event{Slot: int32(slot), Count: 1 + int32(data[i+1])})
	}
	return s, slot + 1 + tail
}

// TestExtractWindowMatchesDense is the property test: over random series
// mixing long runs, isolated fires and idle stretches, every window start —
// mid-run, on a run boundary, inside a gap, past the last event — extracts
// the same activity from the sparse series, read as one part or as two
// split at any event, as from the dense suffix.
func TestExtractWindowMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 2*rng.Intn(40))
		for i := range data {
			data[i] = byte(rng.Intn(256))
			if i%2 == 0 && rng.Intn(2) == 0 {
				data[i] = 0 // bias towards multi-slot runs
			}
		}
		s, slots := seriesFromBytes(data, rng.Intn(5))
		if slots == 0 {
			slots = 1
		}
		// Every start reads one part; the starts next to an event, where a
		// cut lands mid-run, on a run's edge or in a gap, also read every
		// split.
		reads := readings(s)
		near := map[int]bool{0: true}
		for _, e := range s {
			near[int(e.Slot)-1], near[int(e.Slot)], near[int(e.Slot)+1] = true, true, true
		}
		for start := 0; start < slots; start++ {
			if near[start] {
				checkWindowExtraction(t, s, reads, slots, start)
			} else {
				checkWindowExtraction(t, s, reads[:1], slots, start)
			}
		}
	}
}

func FuzzExtractWindow(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(3))
	f.Add([]byte{0, 1, 0, 2, 0, 3}, uint16(1), uint8(0))             // one run, cut mid-run
	f.Add([]byte{5, 1, 0, 1, 9, 4, 0, 1, 0, 1}, uint16(7), uint8(2)) // cut inside a gap
	f.Add([]byte{0, 0, 63, 255, 1, 7}, uint16(65), uint8(1))         // cut on the last run's first slot
	// Each input is also read as two parts split at every event index: a
	// split inside a run, between runs, and one the window cut lands on.
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1}, uint16(2), uint8(1))
	f.Add([]byte{3, 1, 0, 2, 7, 1, 0, 3, 9, 1}, uint16(5), uint8(4))
	f.Add([]byte{1, 9, 0, 9, 0, 9, 2, 9}, uint16(4), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, start uint16, tail uint8) {
		s, slots := seriesFromBytes(data, int(tail))
		if slots == 0 {
			return
		}
		checkWindowExtraction(t, s, readings(s), slots, int(start)%slots)
	})
}
