package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program.
// Spans of one request share Req; Parent is the ID of the enclosing span
// (0 for a root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer records spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so the end-to-end runs pay one
// nil check per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	ids   int64
}

// NewTracer starts an empty trace whose clock is zero now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span named after the layer being called and returns its
// ID and the function that closes it.
func (t *Tracer) Begin(name string, parent, req int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.mu.Unlock()
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// Record adds a span whose start and end the caller measured.
func (t *Tracer) Record(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ids++
	t.spans = append(t.spans, Span{ID: t.ids, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans, in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval covered by its children. Overlapping children
// (parallel calls) are counted once, and a child's time outside its
// parent's interval is not subtracted.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals clipped
// to [start, end).
func covered(start, end time.Duration, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	reach = start
	for _, x := range iv {
		a := max(x[0], reach)
		if x[1] > a {
			total += x[1] - a
			reach = x[1]
		}
	}
	return total
}
