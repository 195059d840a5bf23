package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/scenario"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states. Queued and running jobs are in flight; done,
// failed, and canceled are terminal.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// request is what the shared lifecycle needs from a JobRequest or a
// CertRequest: the scenario it names and the seed in its identity.
type request interface {
	identity() (scenario string, seed int64)
}

// state is the wire representation of one scheduled computation at one
// instant: what GET /jobs/{id} and GET /certify/{id} return and what each
// NDJSON stream line carries. Result holds the exact cached bytes of the
// outcome, so byte identity survives the round trip through the API.
type state[P any] struct {
	ID       string          `json:"id"`
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Status   JobStatus       `json:"status"`
	Cached   bool            `json:"cached,omitempty"`
	Deduped  int             `json:"deduped,omitempty"`
	Progress *P              `json:"progress,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// work is one scheduled computation: a trial job (Job) or a certification
// sweep (CertJob). Its identity is its content address, so two requests
// with the same key are the same work and every submitter shares it. R is
// the request type, P the progress type its wire state carries.
type work[R request, P any] struct {
	// ID is the content address (scenario.JobKey or equilibrium.Key).
	ID string
	// Req is the request that first created the work.
	Req R

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	status   JobStatus
	cached   bool
	deduped  int
	result   []byte
	errMsg   string
	progress *P  // replaced on every update, never mutated in place
	lastDone int // trials of a trial job already counted in Stats.Trials
}

// record is what the scheduler's content-addressed table holds: a *Job or a
// *CertJob. Trial and certificate keys live in disjoint key spaces.
type record interface{ key() string }

func (j *work[R, P]) key() string { return j.ID }

// Done returns a channel closed when the work reaches a terminal state.
func (j *work[R, P]) Done() <-chan struct{} { return j.done }

// State captures the work's current wire state.
func (j *work[R, P]) State() state[P] {
	name, seed := j.Req.identity()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := state[P]{
		ID:       j.ID,
		Scenario: name,
		Seed:     seed,
		Status:   j.status,
		Cached:   j.cached,
		Deduped:  j.deduped,
		Progress: j.progress,
		Error:    j.errMsg,
	}
	if j.result != nil {
		st.Result = json.RawMessage(j.result)
	}
	return st
}

// setStatus records a non-terminal status change.
func (j *work[R, P]) setStatus(status JobStatus) {
	j.mu.Lock()
	j.status = status
	j.mu.Unlock()
}

// finish moves the work to a terminal state exactly once.
func (j *work[R, P]) finish(status JobStatus, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	close(j.done)
}

// stop cancels the work unless it is already terminal, reporting whether
// a cancelation was delivered.
func (j *work[R, P]) stop() bool {
	j.mu.Lock()
	terminal := j.status.Terminal()
	j.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	return !terminal
}

// submitBatch is the body of Submit and SubmitCerts. It validates every
// request before creating any work, so a typo cannot half-run a batch:
// plan resolves one request against its registered scenario to its
// content address and the computation a fresh run executes. Then, under
// s.mu, each request resolves to the same work in flight (a dedup join),
// a finished twin or cache entry (a replay), or a fresh run.
func submitBatch[R request, P any](s *Scheduler, kind string, reqs []R,
	plan func(scenario.Scenario, R) (string, func(*work[R, P]) (any, error), error)) ([]*work[R, P], error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("service: empty %s batch", kind)
	}
	ids := make([]string, len(reqs))
	runs := make([]func(*work[R, P]) (any, error), len(reqs))
	for i, req := range reqs {
		name, _ := req.identity()
		sc, ok := scenario.Find(name)
		if !ok {
			return nil, fmt.Errorf("service: %s %d: no registered scenario %q", kind, i, name)
		}
		id, run, err := plan(sc, req)
		if err != nil {
			return nil, fmt.Errorf("service: %s %d: %w", kind, i, err)
		}
		ids[i], runs[i] = id, run
	}
	out := make([]*work[R, P], len(reqs))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseCtx.Err() != nil {
		return nil, errors.New("service: scheduler is closed")
	}
	for i, req := range reqs {
		s.submitted.Add(1)
		out[i] = resolveLocked(s, ids[i], req, runs[i])
	}
	return out, nil
}

// resolveLocked resolves one validated request. Callers hold s.mu.
func resolveLocked[R request, P any](s *Scheduler, id string, req R, run func(*work[R, P]) (any, error)) *work[R, P] {
	if j, ok := s.entries[id].(*work[R, P]); ok {
		j.mu.Lock()
		status := j.status
		if !status.Terminal() {
			j.deduped++
		}
		j.mu.Unlock()
		switch {
		case status == StatusDone:
			s.hitsCache.Add(1)
			return j
		case !status.Terminal():
			s.hitsDedup.Add(1)
			return j
		}
		// Failed or canceled: run afresh under the same identity.
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &work[R, P]{ID: id, Req: req, ctx: ctx, cancel: cancel, done: make(chan struct{}), status: StatusQueued}
	if b, ok := s.cacheGetLocked(id); ok {
		j.cached = true
		j.finish(StatusDone, b, "")
		j.cancel() // born terminal: release the context immediately
		s.entries[id] = j
		s.hitsCache.Add(1)
		return j
	}
	s.entries[id] = j
	s.runsFresh.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer j.cancel() // release the context once the work is terminal
		out, err := run(j)
		j.settle(s, out, err)
	}()
	return j
}

// settle is the terminal tail of every run: a result is marshaled, cached
// in both tiers and served; a cancelation or failure is recorded and the
// record retired.
func (j *work[R, P]) settle(s *Scheduler, out any, err error) {
	var b []byte
	if err == nil {
		b, err = json.Marshal(out)
	}
	switch {
	case err == nil:
		s.cachePut(j.ID, b)
		s.completed.Add(1)
		j.finish(StatusDone, b, "")
		return
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		s.canceled.Add(1)
		j.finish(StatusCanceled, nil, err.Error())
	default:
		s.failed.Add(1)
		j.finish(StatusFailed, nil, err.Error())
	}
	s.retire(j)
}

// retire records failed or canceled work in the bounded terminal list;
// beyond the cap the oldest retired record is dropped from the table
// (unless a fresh run has already replaced it under the same identity).
// Done work is instead governed by the cache's eviction hook.
func (s *Scheduler) retire(e record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, e)
	for len(s.retired) > s.retiredCap {
		old := s.retired[0]
		s.retired[0] = nil
		s.retired = s.retired[1:]
		if s.entries[old.key()] == old {
			delete(s.entries, old.key())
		}
	}
}
