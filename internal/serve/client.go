package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/retry"
)

// Client speaks the daemon's ingest protocol with the repository's standard
// transient-fault discipline: network failures and 503 backpressure are
// marked transient and retried on the retry.Policy schedule, protocol
// rejections surface immediately. The client owns the sequence
// numbers — assigned once per batch and reused verbatim across retries —
// which is what makes a retried delivery land as a duplicate ack instead of
// a double-apply.
type Client struct {
	Base  string       // daemon base URL, e.g. "http://127.0.0.1:8080"
	HTTP  *http.Client // nil: a client with a 30s overall timeout
	Retry retry.Policy // zero value: package defaults

	nextSeq atomic.Uint64
	retries atomic.Int64
}

// transientError marks a failure a re-delivery may cure: a network error,
// a shed request, a torn or short reply. Every other failure surfaces on
// the first attempt.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// markTransient wraps a non-nil err so isTransient reports true for it and
// for any error wrapping it.
func markTransient(err error) error { return &transientError{err: err} }

// isTransient reports whether err's Unwrap chain holds a markTransient mark.
func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// Retries returns the number of re-delivery attempts performed so far
// (attempts beyond each request's first).
func (c *Client) Retries() int64 { return c.retries.Load() }

// sendScratch is what one Send borrows from the pool: the request body, the
// reply scanner's buffer, and the arena the replies' lists are decoded into
// before they are copied out for the caller.
type sendScratch struct {
	payload []byte
	line    []byte
	ids     []int64
}

var sendPool = sync.Pool{New: func() any {
	return &sendScratch{line: make([]byte, maxPooledBytes)}
}}

// Send assigns sequence numbers to the batches, delivers them as one NDJSON
// request, and returns the per-batch replies, which are the caller's: nothing
// in them is reused by a later Send. Transient failures (network errors,
// dropped connections, shed 503s) are retried with the same sequence
// numbers; a reply carrying a protocol rejection is returned as an error.
func (c *Client) Send(batches []Batch) ([]Reply, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	scr := sendPool.Get().(*sendScratch)
	payload := scr.payload[:0]
	for i := range batches {
		batches[i].Seq = c.nextSeq.Add(1)
		payload = append(appendBatch(payload, &batches[i]), '\n')
	}
	var sb [32]byte
	subject := string(strconv.AppendUint(append(sb[:0], "batch-"...), batches[0].Seq, 10))

	replies := make([]Reply, 0, len(batches))
	// net/http may still be reading a request body in another goroutine
	// after Do has returned an error, so such a payload is never reused.
	payloadFree := true
	op := func(attempt int) error {
		if attempt > 1 {
			c.retries.Add(1)
		}
		req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/events", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		// The request's identity across retries, which a fault-injecting
		// handler or transport keys its schedule on.
		req.Header.Set("Spes-Batch", subject)
		resp, err := c.http().Do(req)
		if err != nil {
			payloadFree = false
			return markTransient(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body)
			return markTransient(fmt.Errorf("serve: daemon shed request (503)"))
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("serve: daemon returned %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		replies, scr.ids = replies[:0], scr.ids[:0]
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(scr.line, maxBatchLine)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			replies = append(replies, Reply{}) // decoded in place, like the daemon's batches
			scr.ids, err = decodeReply(sc.Bytes(), &replies[len(replies)-1], scr.ids)
			if err != nil {
				return markTransient(fmt.Errorf("serve: bad reply line: %w", err))
			}
		}
		if err := sc.Err(); err != nil {
			return markTransient(err)
		}
		if len(replies) != len(batches) {
			return markTransient(fmt.Errorf("serve: %d replies for %d batches", len(replies), len(batches)))
		}
		return nil
	}
	err := c.Retry.Do(op, isTransient)
	if err == nil {
		ownLists(replies)
	}
	scr.payload = nil
	if payloadFree {
		scr.payload = keep(payload, maxPooledBytes)
	}
	scr.ids = keep(scr.ids, maxPooledElems)
	sendPool.Put(scr)
	if err != nil {
		return nil, err
	}
	for i := range replies {
		if replies[i].Error != "" {
			return replies, fmt.Errorf("serve: batch seq %d rejected: %s", replies[i].Seq, replies[i].Error)
		}
	}
	return replies, nil
}

// ownLists moves the replies' lists out of the decode arena into one
// allocation of their own. A nil list stays nil.
func ownLists(replies []Reply) {
	n := 0
	for i := range replies {
		n += len(replies[i].Admitted) + len(replies[i].Cold) + len(replies[i].Flips)
	}
	own := make([]int64, 0, n)
	move := func(list []int64) []int64 {
		if list == nil {
			return nil
		}
		start := len(own)
		own = append(own, list...)
		return own[start:len(own):len(own)]
	}
	for i := range replies {
		r := &replies[i]
		r.Admitted, r.Cold, r.Flips = move(r.Admitted), move(r.Cold), move(r.Flips)
	}
}
