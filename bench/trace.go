package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that layer's public functions. Times are nanoseconds since the
// tracer's origin. Spans of one request share Req; Parent is the span
// that caused this one (0 when it is a root or the cause cannot be seen
// from outside the layer, as for a blob fetch issued on an executor
// worker).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is off.
type tracer struct {
	origin  time.Time
	enabled atomic.Bool
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)}
}

// on reports whether spans are being recorded right now.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// newID reserves a span ID, so children can name their parent before the
// parent has ended.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a finished span under a fresh ID and returns the ID.
func (t *tracer) record(name string, start, end, parent, req int64) int64 {
	id := t.newID()
	t.add(span{Name: name, Start: start, End: end, ID: id, Parent: parent, Req: req})
	return id
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans dumps spans as JSON lines and returns the bytes written.
func writeSpans(w io.Writer, workload string, spans []span) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// byReq groups spans by request ID, dropping spans without one.
func byReq(spans []span) map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range spans {
		if s.Req != 0 {
			out[s.Req] = append(out[s.Req], s)
		}
	}
	return out
}

// durUs is a span's duration in microseconds.
func (s span) durUs() float64 { return float64(s.End-s.Start) / 1e3 }
