package main

import (
	"context"
	"testing"
	"time"
)

// A handler that stalls must show up as latency on the requests queued
// behind it, not as requests never sent.
func TestOpenLoopCountsStallAsLatency(t *testing.T) {
	const rate, dur = 200.0, 300 * time.Millisecond // 60 requests, one every 5 ms
	const stallAt, stall = 10, 100 * time.Millisecond
	sent := 0
	res := OpenLoop(context.Background(), rate, dur, func(i int) {
		sent++
		if i == stallAt {
			time.Sleep(stall)
		}
	})
	if sent != 60 || len(res.Latency) != 60 || len(res.Lag) != 60 {
		t.Fatalf("sent %d requests, recorded %d latencies and %d lags; want 60 of each", sent, len(res.Latency), len(res.Lag))
	}
	if res.Latency[stallAt] < ms(stall) {
		t.Errorf("stalled request latency %.1f ms, want ≥ %v", res.Latency[stallAt], stall)
	}
	// The request due 5 ms after the stalled one was sent ~95 ms late; its
	// latency counts that wait.
	if next := res.Latency[stallAt+1]; next < 80 {
		t.Errorf("request behind the stall: latency %.1f ms, want ≥ 80", next)
	}
	if lag := res.Lag[stallAt+1]; lag < 80 {
		t.Errorf("request behind the stall: lag %.1f ms, want ≥ 80", lag)
	}
	// Before the stall the generator kept its schedule.
	if first := res.Latency[0]; first > 50 {
		t.Errorf("first request latency %.1f ms on an idle handler", first)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	res := OpenLoop(ctx, 1000, time.Second, func(i int) {
		if i == 4 {
			cancel()
		}
	})
	if len(res.Latency) != 5 {
		t.Fatalf("after cancel: %d requests, want 5", len(res.Latency))
	}
}
