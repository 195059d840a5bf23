package service

import (
	"context"
	"fmt"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// CertRequest describes one certification sweep: a registered scenario plus
// the sweep parameters that pin its certificate. Zero fields keep the
// equilibrium defaults (2000-trial budget, ε = 0.05, α = 0.05, the
// protocol's resilience bound).
type CertRequest struct {
	// Scenario is the registered scenario name.
	Scenario string `json:"scenario"`
	// N overrides the network size.
	N int `json:"n,omitempty"`
	// Trials is the per-candidate trial budget.
	Trials int `json:"trials,omitempty"`
	// MinTrials is the earliest early-stopping point.
	MinTrials int `json:"min_trials,omitempty"`
	// MaxK bounds honest sweeps' coalition sizes.
	MaxK int `json:"max_k,omitempty"`
	// Epsilon and Alpha are the certified threshold and error level.
	Epsilon float64 `json:"epsilon,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`
	// Seed is the sweep's base seed; it is part of the certificate's
	// identity.
	Seed int64 `json:"seed"`
}

// options lowers the request onto equilibrium.Options (identity-relevant
// fields only; the scheduler adds workers/arenas/progress at run time).
func (r CertRequest) options(version string) equilibrium.Options {
	return equilibrium.Options{
		N: r.N, Trials: r.Trials, MinTrials: r.MinTrials, MaxK: r.MaxK,
		Epsilon: r.Epsilon, Alpha: r.Alpha, Version: version,
	}
}

// identity implements request.
func (r CertRequest) identity() (string, int64) { return r.Scenario, r.Seed }

// CertState is the wire representation of a certification job at one
// instant, with the last finished deviation candidate as its progress.
// Result holds the exact cached certificate bytes.
type CertState = state[equilibrium.Progress]

// CertJob is one scheduled certification sweep; like Job, its identity is
// its content address (equilibrium.Key), so identical requests share one
// computation.
type CertJob = work[CertRequest, equilibrium.Progress]

// SubmitCerts registers a batch of certification requests and returns one
// *CertJob per request, in order, with exactly the dedup semantics of
// Submit: identical requests — in this batch, in flight, or already cached —
// resolve to the same job, and the batch is rejected whole on any invalid
// request.
func (s *Scheduler) SubmitCerts(reqs []CertRequest) ([]*CertJob, error) {
	jobs, err := submitBatch(s, "cert", reqs, func(sc scenario.Scenario, req CertRequest) (string, func(*CertJob) (any, error), error) {
		if err := s.validateCert(sc, req); err != nil {
			return "", nil, err
		}
		return equilibrium.Key(sc, req.Seed, req.options(s.version)), func(j *CertJob) (any, error) { return s.certify(j, sc) }, nil
	})
	if err == nil {
		s.certsSubmitted.Add(int64(len(jobs)))
	}
	return jobs, err
}

// validateCert applies the submit-time checks for a certification request.
// A sweep occupies one engine slot for its whole duration, so the
// MaxTrials bound applies to the sweep's worst case — the per-candidate
// budget times the enumerated space — not to one candidate alone.
func (s *Scheduler) validateCert(sc scenario.Scenario, req CertRequest) error {
	n := sc.N
	if req.N > 0 {
		n = req.N
	}
	switch {
	case req.N < 0 || req.Trials < 0 || req.MinTrials < 0 || req.MaxK < 0:
		return fmt.Errorf("%s: negative override", sc.Name)
	case req.Epsilon < 0 || req.Epsilon >= 1 || req.Alpha < 0 || req.Alpha >= 1:
		return fmt.Errorf("%s: epsilon/alpha out of [0,1)", sc.Name)
	case n < sc.MinN:
		return fmt.Errorf("%s needs n ≥ %d, got %d", sc.Name, sc.MinN, n)
	case req.Trials > s.cfg.MaxTrials:
		// Checked first so the sweep-total product below cannot overflow.
		return fmt.Errorf("%s: %d trials exceeds the per-job bound %d", sc.Name, req.Trials, s.cfg.MaxTrials)
	}
	trials := req.Trials
	if trials <= 0 {
		trials = equilibrium.DefaultTrials
	}
	candidates := len(sc.DeviationSpace(scenario.Opts{N: req.N, Trials: req.Trials, K: 0}, req.MaxK, nil))
	if candidates < 1 {
		candidates = 1
	}
	if total := trials * candidates; total > s.cfg.MaxTrials {
		return fmt.Errorf("%s: sweep of %d candidates × %d trials = %d exceeds the per-job bound %d",
			sc.Name, candidates, trials, total, s.cfg.MaxTrials)
	}
	return nil
}

// certify executes one certification sweep locally, respecting the
// Parallel bound: a sweep occupies one slot for its whole duration,
// exactly like a trial job.
func (s *Scheduler) certify(j *CertJob, sc scenario.Scenario) (any, error) {
	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		return nil, context.Cause(j.ctx)
	}
	defer func() { <-s.sem }()
	s.busy.Add(1)
	defer s.busy.Add(-1)
	j.setStatus(StatusRunning)

	opts := j.Req.options(s.version)
	opts.Workers = s.cfg.Workers
	opts.Arenas = s.arenas
	opts.Progress = func(p equilibrium.Progress) {
		j.mu.Lock()
		j.progress = &p
		j.mu.Unlock()
		s.trialsDone.Add(int64(p.Trials))
	}
	return equilibrium.Certify(j.ctx, sc, j.Req.Seed, opts)
}

// Cert returns the certification job with the given content address.
func (s *Scheduler) Cert(id string) (*CertJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.entries[id].(*CertJob)
	return j, ok
}

// CancelCert cancels a queued or running certification job, with the same
// content-addressed semantics as Cancel.
func (s *Scheduler) CancelCert(id string) bool {
	j, ok := s.Cert(id)
	return ok && j.stop()
}
