package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Name is "<layer>.<what>";
// Parent is the span that caused it (-1 for a root); Op is the repetition it
// belongs to, shared by every span of that repetition. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the benchmark ends. It is safe for
// concurrent use: the sharded engines tick several wrapped policies at once.
// A nil tracer records nothing, so an untraced repetition runs the same
// statements as a traced one.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return id
}

// end closes the span and returns it.
func (t *tracer) end(id int) span {
	if t == nil {
		return span{}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	s := t.spans[id]
	t.mu.Unlock()
	return s
}

// mark returns the position the next span will take; since(mark) copies the
// spans recorded from there on — one repetition's, when taken around it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (concurrent
// shards) and are clipped to the parent, so covered time is counted once.
// spans may be any part of a trace that holds whole trees.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf is the module a span name belongs to: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[layerOf(s.Name)] += float64(self[i]) / 1e9
	}
	return out
}

// durations returns the lengths in seconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}
