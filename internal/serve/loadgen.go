package serve

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/trace"
)

// LoadOptions shapes a trace replay against a daemon.
type LoadOptions struct {
	// BatchSlots is how many occupied slots ride in one request (default 1).
	BatchSlots int
	// Rate paces ingestion in simulation slots per wall second; 0 replays
	// as fast as the daemon acknowledges.
	Rate float64
	// Start and End bound the replayed slot range [Start, End); End 0 means
	// the trace's full span.
	Start, End int
}

// LoadReport is a replay's outcome: volume, overload/fault counters, and
// the request-latency distribution (each sample is one Send including its
// retries — the latency the decision consumer actually experiences).
type LoadReport struct {
	Slots    int64 `json:"slots"`    // occupied slots delivered
	Batches  int64 `json:"batches"`  // batches acknowledged applied
	Events   int64 `json:"events"`   // (function, slot) event pairs sent
	Requests int64 `json:"requests"` // HTTP requests that succeeded

	Retries    int64 `json:"retries"`    // re-deliveries (network faults, 503 backpressure)
	Degraded   int64 `json:"degraded"`   // batches answered with the fixed-keepalive fallback
	Duplicates int64 `json:"duplicates"` // duplicate acks (a lost ack was retried)

	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`

	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyP999MS float64 `json:"latency_p999_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`
}

// Replay streams tr's occupied slots in [Start, End) to the daemon, one
// batch per occupied slot, BatchSlots batches per request. The trace's
// functions are assumed admitted (trained); replay only carries events.
// A negative Start is an error, returned before anything is sent.
func Replay(c *Client, tr *trace.Trace, opt LoadOptions) (*LoadReport, error) {
	if opt.Start < 0 {
		return nil, fmt.Errorf("serve: replay start slot %d is negative", opt.Start)
	}
	if opt.BatchSlots <= 0 {
		opt.BatchSlots = 1
	}
	end := opt.End
	if end <= 0 || end > tr.Slots {
		end = tr.Slots
	}

	var pending []Batch
	rep := &LoadReport{}
	var latencies []time.Duration
	var interval time.Duration
	if opt.Rate > 0 {
		interval = time.Duration(float64(opt.BatchSlots) / opt.Rate * float64(time.Second))
	}
	start := time.Now()
	next := start

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		t0 := time.Now()
		replies, err := c.Send(pending)
		if err != nil {
			return fmt.Errorf("serve: replay at slot %d: %w", pending[0].Slot, err)
		}
		latencies = append(latencies, time.Since(t0))
		rep.Requests++
		for _, r := range replies {
			switch {
			case r.Degraded:
				rep.Degraded++
			case r.Duplicate:
				rep.Duplicates++
			case r.Applied:
				rep.Batches++
			}
		}
		pending = pending[:0]
		return nil
	}

	for slot, invs := range tr.BySlot(opt.Start, end) {
		events := make([]EventPair, len(invs))
		for i, fc := range invs {
			events[i] = EventPair{int64(fc.Func), int64(fc.Count)}
			rep.Events++
		}
		pending = append(pending, Batch{Slot: slot, Events: events})
		rep.Slots++
		if len(pending) >= opt.BatchSlots {
			if err := flush(); err != nil {
				return rep, err
			}
		}
	}
	if err := flush(); err != nil {
		return rep, err
	}

	elapsed := time.Since(start)
	rep.Retries = c.Retries()
	rep.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		rep.EventsPerSec = float64(rep.Events) / elapsed.Seconds()
	}
	rep.LatencyP50MS = ms(percentile(latencies, 0.50))
	rep.LatencyP99MS = ms(percentile(latencies, 0.99))
	rep.LatencyP999MS = ms(percentile(latencies, 0.999))
	rep.LatencyMaxMS = ms(percentile(latencies, 1))
	return rep, nil
}

// percentile returns the q-quantile (nearest-rank) of the samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := make([]time.Duration, len(d))
	copy(s, d)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
