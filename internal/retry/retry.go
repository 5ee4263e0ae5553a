// Package retry is the bounded retry/backoff helper behind the serving
// client's ingest retries (serve.Client). The schedule is deliberately
// jitterless — BaseDelay doubled per failure, capped at MaxDelay — so a
// retry sequence is a pure function of the policy and the attempt number.
package retry

import "time"

// Policy bounds one retry loop. The zero value takes the package defaults
// (3 attempts, 5ms base, 250ms cap); a negative MaxAttempts disables
// retries (one attempt, still classified by the caller).
type Policy struct {
	MaxAttempts int           // total attempts, including the first (default 3)
	BaseDelay   time.Duration // first backoff sleep (default 5ms)
	MaxDelay    time.Duration // backoff cap (default 250ms)

	// Sleep is the clock seam: nil means time.Sleep. Tests substitute a
	// recorder for a deterministic, wall-clock-free run.
	Sleep func(time.Duration)
}

// Defaults for Policy's zero fields.
const (
	DefaultAttempts = 3
	DefaultBase     = 5 * time.Millisecond
	DefaultMax      = 250 * time.Millisecond
)

// Attempts resolves the effective attempt budget.
func (p Policy) Attempts() int {
	switch {
	case p.MaxAttempts < 0:
		return 1
	case p.MaxAttempts == 0:
		return DefaultAttempts
	default:
		return p.MaxAttempts
	}
}

// Backoff returns the sleep before attempt n+1 (n is the 1-based attempt
// that just failed): BaseDelay doubled per failure, capped at MaxDelay.
func (p Policy) Backoff(n int) time.Duration {
	base, cap := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultBase
	}
	if cap <= 0 {
		cap = DefaultMax
	}
	d := base
	for i := 1; i < n && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// sleep applies the clock seam.
func (p Policy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Do runs op up to Attempts times, sleeping Backoff(n) after failed attempt
// n. retryable classifies a failure: a nil func retries everything within
// the budget; otherwise a failure it rejects surfaces immediately (the
// serving client retries only what it marked transient). The returned
// error is the last attempt's.
func (p Policy) Do(op func(attempt int) error, retryable func(error) bool) error {
	max := p.Attempts()
	var err error
	for n := 1; ; n++ {
		if err = op(n); err == nil {
			return nil
		}
		if n >= max || (retryable != nil && !retryable(err)) {
			return err
		}
		p.sleep(p.Backoff(n))
	}
}
