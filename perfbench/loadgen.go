package main

import (
	"context"
	"time"
)

// OpenLoopResult is what an open-loop generator measured. Latency[i] runs
// from when request i was due to when its reply arrived, so a stall shows
// up in the latency of every request queued behind it. Lag[i] is how late
// request i was sent.
type OpenLoopResult struct {
	Latency []float64 // ms
	Lag     []float64 // ms
}

// OpenLoop sends requests on a fixed schedule from the calling goroutine:
// request i is due at start + i/rate, for every due time before start +
// dur. A request that comes due while an earlier one is outstanding is sent
// as soon as that one returns, late, and never skipped; the schedule does
// not slip. do sends request i and waits for its reply. OpenLoop returns
// early only when ctx ends.
func OpenLoop(ctx context.Context, rate float64, dur time.Duration, do func(i int)) OpenLoopResult {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	res := OpenLoopResult{Latency: make([]float64, 0, n), Lag: make([]float64, 0, n)}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return res
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return res
		}
		sent := time.Now()
		do(i)
		done := time.Now()
		res.Latency = append(res.Latency, ms(done.Sub(due)))
		res.Lag = append(res.Lag, ms(sent.Sub(due)))
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
