package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "service.http", Start: ms(0), End: ms(10)},
		// Overlapping children cover [2, 6) once, not 2+3 ms.
		{ID: 2, Parent: 1, Name: "scenario.a", Start: ms(2), End: ms(4)},
		{ID: 3, Parent: 1, Name: "scenario.b", Start: ms(3), End: ms(6)},
		// A child running past its parent's end only covers [8, 10).
		{ID: 4, Parent: 1, Name: "engine.x", Start: ms(8), End: ms(12)},
		// A grandchild is subtracted from its own parent, not the root.
		{ID: 5, Parent: 3, Name: "sim.y", Start: ms(4), End: ms(5)},
		// A span of another request with no parent stands alone.
		{ID: 6, Req: 9, Name: "service.http", Start: ms(20), End: ms(23)},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"service.http": ms(4) + ms(3),
		"scenario.a":   ms(2),
		"scenario.b":   ms(2),
		"engine.x":     ms(4),
		"sim.y":        ms(1),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := NewTracer()
	parent, endParent := tr.Begin("bench.pass", 0, 7)
	_, endChild := tr.Begin("scenario.row", parent, 7)
	endChild()
	endParent()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "bench.pass" || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	id, end := tr.Begin("x", 0, 0)
	end()
	tr.Record("y", 0, 0, time.Now(), time.Now())
	if id != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}
