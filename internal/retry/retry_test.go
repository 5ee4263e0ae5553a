package retry

import (
	"errors"
	"testing"
	"time"
)

func TestAttempts(t *testing.T) {
	cases := []struct {
		max  int
		want int
	}{{-1, 1}, {0, 3}, {1, 1}, {5, 5}}
	for _, c := range cases {
		if got := (Policy{MaxAttempts: c.max}).Attempts(); got != c.want {
			t.Errorf("MaxAttempts %d: attempts %d, want %d", c.max, got, c.want)
		}
	}
}

// TestBackoffSchedule pins the jitterless doubling-with-cap schedule, and
// the doubling from another base.
func TestBackoffSchedule(t *testing.T) {
	p := Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A 2ms base gives 2ms, 4ms before attempts 2 and 3.
	d := Policy{BaseDelay: 2 * time.Millisecond}
	if d.Backoff(1) != 2*time.Millisecond || d.Backoff(2) != 4*time.Millisecond {
		t.Errorf("2ms-base backoff = %v, %v; want 2ms, 4ms", d.Backoff(1), d.Backoff(2))
	}
}

func TestDoRetriesTransientsOnly(t *testing.T) {
	transient := errors.New("transient")
	fatal := errors.New("fatal")
	var slept []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}

	// Succeeds on the third attempt: two sleeps, doubling.
	calls := 0
	err := p.Do(func(int) error {
		calls++
		if calls < 3 {
			return transient
		}
		return nil
	}, func(err error) bool { return errors.Is(err, transient) })
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want success on call 3", err, calls)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("sleeps %v, want [1ms 2ms]", slept)
	}

	// A non-retryable failure surfaces on the first attempt, no sleeps.
	slept = slept[:0]
	calls = 0
	err = p.Do(func(int) error { calls++; return fatal },
		func(err error) bool { return errors.Is(err, transient) })
	if !errors.Is(err, fatal) || calls != 1 || len(slept) != 0 {
		t.Fatalf("deterministic failure: err=%v calls=%d sleeps=%v, want 1 call, no sleeps", err, calls, slept)
	}

	// Budget exhaustion returns the last error.
	calls = 0
	err = p.Do(func(int) error { calls++; return transient }, nil)
	if !errors.Is(err, transient) || calls != 3 {
		t.Fatalf("exhaustion: err=%v calls=%d, want transient after 3 calls", err, calls)
	}
}
