package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one statement share its request id; Parent is the
// ID of the enclosing span (0 for a root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer
// (on == false) records nothing, so the same probe code runs traced and
// untraced.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{on: true, origin: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON lines, one span per line, with the
// span's self time added.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			Span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// spanStats summarizes the recorded spans by name: durations and self
// times, in recording order.
type spanStats struct {
	dur  map[string][]time.Duration
	self map[string][]time.Duration
}

func summarize(spans []Span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	for i, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.Dur())
		st.self[s.Name] = append(st.self[s.Name], self[i])
	}
	return st
}

// meanDur and meanSelf average a span name's durations and self times.
func (st spanStats) meanDur(name string) time.Duration  { return meanOf(st.dur[name]) }
func (st spanStats) meanSelf(name string) time.Duration { return meanOf(st.self[name]) }

func meanOf(ds []time.Duration) time.Duration { return time.Duration(mean(floats(ds))) }

func floats(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}
