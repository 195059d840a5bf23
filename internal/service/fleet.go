package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/scenario"
)

// Node roles. Single and coordinator nodes own jobs and run each one as a
// queue of trial chunks drained by one local runner; a coordinator also
// lets workers lease chunks from that queue over HTTP; a worker owns no
// jobs and only claims chunks from the coordinator it joined.
const (
	RoleSingle      = "single"
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// DefaultFleetChunk is the trials-per-chunk used when Config leaves
// FleetChunk zero: small enough that a medium batch spreads across a
// 3-node fleet, large enough that per-chunk HTTP overhead stays a rounding
// error next to the engine work.
const DefaultFleetChunk = 512

// DefaultLeaseTTL is the chunk lease lifetime used when Config leaves
// LeaseTTL zero. A worker heartbeats at a third of this, so three missed
// beats mark it dead and its chunks get re-issued.
const DefaultLeaseTTL = 5 * time.Second

// ClaimRequest is the POST /chunks/claim payload: the claimant announces
// its code version (chunk results computed by a different build must never
// fold into a job's distribution) and a display name for stats.
type ClaimRequest struct {
	Version string `json:"version"`
	Node    string `json:"node,omitempty"`
}

// ChunkLease answers a successful claim: one trial range of one job,
// leased to the claimant until TTL expires. The embedded JobRequest is
// everything a worker needs to reproduce the exact sub-batch — scenario,
// overrides, and the batch base seed; per-trial seeds derive from the
// logical indices in [Start, End).
type ChunkLease struct {
	Lease    int64      `json:"lease"`
	Job      JobRequest `json:"job"`
	Start    int        `json:"start"`
	End      int        `json:"end"`
	TTLMilli int64      `json:"ttl_ms"`
}

// ChunkResult is the POST /chunks/result payload: the shard distribution
// of the leased range, or the error that prevented it.
type ChunkResult struct {
	Lease int64              `json:"lease"`
	Dist  *ring.Distribution `json:"dist,omitempty"`
	Error string             `json:"error,omitempty"`
}

// ChunkHeartbeat is the POST /chunks/heartbeat payload; a beat extends the
// lease by one TTL. A 410 response tells the claimant its lease is gone —
// the job was canceled or the lease expired and was re-issued — and the
// run should be abandoned.
type ChunkHeartbeat struct {
	Lease int64 `json:"lease"`
}

// fleetTask is one trial job in the chunk queue: its unclaimed chunks,
// its chunk results, and the chunk-order merge frontier. Results merge
// into merged strictly in chunk index order, whichever node ran them, so
// the progress snapshots are chunk-ordered prefixes and the final
// distribution is byte-identical to a whole-batch run at any fleet size.
type fleetTask struct {
	job  *Job
	sc   scenario.Scenario
	opts scenario.Opts

	total    int                  // resolved trial count
	chunks   int                  // total chunk count
	queue    []*fleetChunk        // chunks nobody is running, lowest index first
	results  []*ring.Distribution // per chunk index, nil until reported
	frontier int                  // chunks merged into merged so far
	merged   *ring.Distribution

	done    chan struct{} // closed when merged covers the batch or the task dies
	err     error         // first chunk failure, set before done closes
	aborted bool
}

// pop removes and returns the task's lowest queued chunk, or nil.
func (t *fleetTask) pop() *fleetChunk {
	if len(t.queue) == 0 {
		return nil
	}
	c := t.queue[0]
	t.queue = t.queue[1:]
	return c
}

// fleetChunk is one claimable trial range.
type fleetChunk struct {
	task       *fleetTask
	index      int
	start, end int
	lease      int64 // current remote lease id; 0 while queued or local
	expires    time.Time
}

// fleet is a node's chunk queue: the live tasks in submission order, the
// lease table of chunks running on remote claimants, and the merge state
// of every task. Locking: f.mu is leaf-level — nothing under it takes s.mu
// or a job's mu. Scheduler methods call into fleet while holding no locks.
type fleet struct {
	s         *Scheduler
	chunkSize int
	ttl       time.Duration

	mu        sync.Mutex
	wake      chan struct{} // closed and replaced whenever chunks join a queue
	tasks     []*fleetTask
	leased    map[int64]*fleetChunk
	nextLease int64

	enqueued  atomic.Int64 // chunks created
	completed atomic.Int64 // chunk results folded in
	reissued  atomic.Int64 // leases reclaimed from dead claimants
	remote    atomic.Int64 // claims granted over HTTP
}

// newFleet builds the chunk queue and starts its janitor, which reclaims
// expired leases even when no claim traffic arrives.
func newFleet(s *Scheduler) *fleet {
	f := &fleet{
		s:         s,
		chunkSize: s.cfg.FleetChunk,
		ttl:       s.cfg.LeaseTTL,
		wake:      make(chan struct{}),
		leased:    make(map[int64]*fleetChunk),
	}
	if f.chunkSize <= 0 {
		f.chunkSize = DefaultFleetChunk
	}
	if f.ttl <= 0 {
		f.ttl = DefaultLeaseTTL
	}
	s.wg.Add(1)
	go f.janitor()
	return f
}

// janitor periodically reclaims expired leases until the scheduler closes.
func (f *fleet) janitor() {
	defer f.s.wg.Done()
	ticker := time.NewTicker(f.ttl / 2)
	defer ticker.Stop()
	for {
		select {
		case <-f.s.baseCtx.Done():
			return
		case <-ticker.C:
			f.mu.Lock()
			f.reclaimExpiredLocked()
			f.mu.Unlock()
		}
	}
}

// wakeLocked wakes every waiting runner and long-polling claimant.
// Callers hold f.mu.
func (f *fleet) wakeLocked() {
	close(f.wake)
	f.wake = make(chan struct{})
}

// enqueue decomposes one fresh job into claimable chunks and returns its
// task.
func (f *fleet) enqueue(j *Job, sc scenario.Scenario, opts scenario.Opts) *fleetTask {
	n, total := sc.Resolve(opts)
	t := &fleetTask{
		job:    j,
		sc:     sc,
		opts:   opts,
		total:  total,
		chunks: (total + f.chunkSize - 1) / f.chunkSize,
		merged: ring.NewDistribution(n),
		done:   make(chan struct{}),
	}
	t.results = make([]*ring.Distribution, t.chunks)
	for i, start := 0, 0; start < total; i, start = i+1, start+f.chunkSize {
		t.queue = append(t.queue, &fleetChunk{task: t, index: i, start: start, end: min(start+f.chunkSize, total)})
	}
	f.mu.Lock()
	f.tasks = append(f.tasks, t)
	f.enqueued.Add(int64(t.chunks))
	f.wakeLocked()
	f.mu.Unlock()
	return t
}

// reclaimExpiredLocked sweeps the lease table: expired chunks of live
// tasks rejoin the front of their task's queue; chunks of dead tasks are
// dropped. Callers hold f.mu.
func (f *fleet) reclaimExpiredLocked() {
	now := time.Now()
	reissued := false
	for id, c := range f.leased {
		if now.Before(c.expires) {
			continue
		}
		delete(f.leased, id)
		c.lease = 0
		if !c.task.aborted {
			c.task.queue = append([]*fleetChunk{c}, c.task.queue...)
			f.reissued.Add(1)
			reissued = true
		}
	}
	if reissued {
		f.wakeLocked()
	}
}

// drain is a job's local runner: it runs the task's queued chunks
// in-process through RunShard, one at a time, until the merge covers the
// batch, the task dies, or the job is canceled. Between chunks it waits
// for remote results or for re-issued chunks of its own task.
func (f *fleet) drain(t *fleetTask) {
	ctx := t.job.ctx
	o := t.opts
	o.Workers = f.s.cfg.Workers
	o.Arenas = f.s.arenas
	for {
		f.mu.Lock()
		c := t.pop()
		wake := f.wake
		f.mu.Unlock()
		if c == nil {
			select {
			case <-t.done:
				return
			case <-ctx.Done():
				return
			case <-wake:
				continue
			}
		}
		f.s.busy.Add(1)
		dist, err := t.sc.RunShard(ctx, t.job.Req.Seed, o, c.start, c.end)
		f.s.busy.Add(-1)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			f.fold(c, nil, err.Error())
		} else {
			f.fold(c, dist, "")
		}
	}
}

// claimHold bounds one long-poll claim: a third of the lease TTL, so an
// idle claimant calls about as often as a busy one heartbeats, and never
// more than a third of the worker client's timeout.
func (f *fleet) claimHold() time.Duration {
	return min(f.ttl/3, workerClientTimeout/3)
}

// claim hands one chunk to a remote claimant, long-polling: with nothing
// queued it waits up to claimHold for work to arrive, and returns nil
// when the hold expires, the request is canceled, or the scheduler
// closes. Remote claimants take the oldest task's lowest chunk.
func (f *fleet) claim(ctx context.Context) *ChunkLease {
	ctx, cancel := context.WithTimeout(ctx, f.claimHold())
	defer cancel()
	for {
		f.mu.Lock()
		f.reclaimExpiredLocked()
		var c *fleetChunk
		for _, t := range f.tasks {
			if c = t.pop(); c != nil {
				break
			}
		}
		if c != nil {
			f.nextLease++
			c.lease = f.nextLease
			c.expires = time.Now().Add(f.ttl)
			f.leased[c.lease] = c
			f.mu.Unlock()
			f.remote.Add(1)
			return &ChunkLease{
				Lease:    c.lease,
				Job:      c.task.job.Req,
				Start:    c.start,
				End:      c.end,
				TTLMilli: f.ttl.Milliseconds(),
			}
		}
		wake := f.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil
		case <-f.s.baseCtx.Done():
			return nil
		}
	}
}

// heartbeat extends a live lease by one TTL. It reports false when the
// lease is unknown — expired and re-issued, or the job is gone — which
// tells the claimant to abandon the run.
func (f *fleet) heartbeat(lease int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.leased[lease]
	if !ok || c.task.aborted {
		return false
	}
	c.expires = time.Now().Add(f.ttl)
	return true
}

// report resolves a remote lease with its shard result or error. Unknown
// leases (expired and re-issued, canceled jobs) report false and the
// result is dropped — the lease table is what makes re-issued chunks merge
// exactly once.
func (f *fleet) report(lease int64, dist *ring.Distribution, errMsg string) bool {
	f.mu.Lock()
	c, ok := f.leased[lease]
	delete(f.leased, lease)
	f.mu.Unlock()
	if ok {
		f.fold(c, dist, errMsg)
	}
	return ok
}

// fold merges one finished chunk into its task. A chunk error fails the
// whole task: partial batches are never cached or served.
func (f *fleet) fold(c *fleetChunk, dist *ring.Distribution, errMsg string) {
	f.mu.Lock()
	t := c.task
	if t.aborted {
		f.mu.Unlock()
		return
	}
	if errMsg != "" {
		f.failTaskLocked(t, errors.New(errMsg))
		f.mu.Unlock()
		return
	}
	t.results[c.index] = dist
	f.completed.Add(1)
	// Advance the chunk-order merge frontier as far as contiguous results
	// allow. Merging in index order — never arrival order — is what keeps
	// the progress stream and any partial observation deterministic; the
	// final totals are order-independent anyway (counter sums).
	for t.frontier < t.chunks && t.results[t.frontier] != nil {
		_ = t.merged.Merge(t.results[t.frontier])
		t.results[t.frontier] = nil
		t.frontier++
	}
	frontierTrials := t.merged.Trials
	finished := t.frontier == t.chunks
	if finished {
		f.removeLocked(t)
		close(t.done)
	}
	// Snapshot while still holding f.mu: the next fold's frontier advance
	// mutates t.merged, so reading it outside the lock races. The final
	// snapshot is published by runTrials once the outcome exists.
	publish := frontierTrials > 0 && !finished
	var snap scenario.Snapshot
	if publish {
		snap = scenario.NewSnapshot(t.merged, frontierTrials, t.total)
	}
	f.mu.Unlock()
	if publish {
		f.publish(t.job, snap)
	}
}

// publish records a chunk-ordered prefix snapshot as the job's progress
// and counts its new trials in the scheduler's throughput.
func (f *fleet) publish(j *Job, snap scenario.Snapshot) {
	j.mu.Lock()
	if snap.Done < j.lastDone {
		// A stale prefix (racing folds) must never regress the stream.
		j.mu.Unlock()
		return
	}
	delta := snap.Done - j.lastDone
	j.progress, j.lastDone = &snap, snap.Done
	j.mu.Unlock()
	f.s.trialsDone.Add(int64(delta))
}

// removeLocked drops a finished or dead task from the queue. Callers hold
// f.mu.
func (f *fleet) removeLocked(t *fleetTask) {
	for i, x := range f.tasks {
		if x == t {
			f.tasks = append(f.tasks[:i], f.tasks[i+1:]...)
			return
		}
	}
}

// failTaskLocked kills a task: its queued chunks are dropped, in-flight
// leases are dropped so late results bounce, and done closes exactly
// once. Callers hold f.mu.
func (f *fleet) failTaskLocked(t *fleetTask, err error) {
	if t.aborted || t.frontier == t.chunks {
		return
	}
	t.aborted = true
	t.err = err
	t.queue = nil
	f.removeLocked(t)
	for id, c := range f.leased {
		if c.task == t {
			delete(f.leased, id)
		}
	}
	close(t.done)
}

// abort cancels a task (job canceled or scheduler closing).
func (f *fleet) abort(t *fleetTask) {
	f.mu.Lock()
	f.failTaskLocked(t, t.job.ctx.Err())
	f.mu.Unlock()
}
