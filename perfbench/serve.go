package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
	"repro/internal/service"
)

// serveVersion is the code version the benchmark's daemons put in their
// job keys; the direct in-process reference runs use the same one.
const serveVersion = "perfbench"

// The serve-mixed workload's request classes.
const (
	mixedRate      = 100.0 // cached replays per second on connection A
	warmIdentities = 64    // distinct cached identities warmed during set-up
	warmTrials     = 2000
	freshScenario  = "ring/basic-lead/fifo"
	freshN         = 16
	freshTrials    = 20000
	certScenario   = "ring/a-lead/fifo"
)

// The serve-fleet workload's job: a committee election whose trials span
// three DefaultFleetChunk chunks, so every job is claimed, leased and
// merged chunk by chunk.
const (
	fleetScenario = "committee/basic-lead/fifo"
	fleetN        = 1024
	fleetTrials   = 3 * service.DefaultFleetChunk
	fleetPassJobs = 3
)

// Seeds are drawn from disjoint ranges per request class, all derived from
// the workload seed, so a fresh request is never one the daemon has seen.
func classSeed(run int64, class, i int) int64 { return run<<24 | int64(class)<<20 | int64(i) }

const (
	classWarm = iota + 1
	classFresh
	classCert
	classFleet
)

// node is one in-process daemon serving on a loopback listener.
type node struct {
	srv    *service.Server
	client *service.Client
	cancel context.CancelFunc
	done   chan error
}

// startNode boots a daemon and serves it until stop.
func startNode(cfg service.Config) (*node, error) {
	cfg.Addr = "127.0.0.1:0"
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := srv.Listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{srv: srv, client: service.NewClient("http://" + srv.Addr()), cancel: cancel, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ctx, ln) }()
	return n, nil
}

// stop shuts the daemon down and waits for it.
func (n *node) stop() {
	n.cancel()
	<-n.done
}

// submitWait submits one job and follows it to a terminal state. onStatus,
// if set, sees every status transition with its time.
func submitWait(ctx context.Context, c *service.Client, req service.JobRequest, onStatus func(service.JobStatus, time.Time)) (service.JobState, error) {
	sts, err := c.Submit(ctx, []service.JobRequest{req})
	if err != nil {
		return service.JobState{}, err
	}
	if len(sts) != 1 {
		return service.JobState{}, fmt.Errorf("submit returned %d states", len(sts))
	}
	st := sts[0]
	if !st.Status.Terminal() {
		last := st.Status
		if onStatus != nil {
			onStatus(last, time.Now())
		}
		st, err = c.Watch(ctx, st.ID, func(s service.JobState) {
			if s.Status != last {
				last = s.Status
				if onStatus != nil {
					onStatus(last, time.Now())
				}
			}
		})
		if err != nil {
			return st, err
		}
	}
	if st.Status != service.StatusDone {
		return st, fmt.Errorf("job %s ended %s: %s", req.Scenario, st.Status, st.Error)
	}
	return st, nil
}

// jobResult is one job's request and the result bytes the daemon returned.
type jobResult struct {
	req service.JobRequest
	got []byte
	err error
}

// verifyJobs compares each job's result bytes with a direct in-process
// single-node run of the same request, outside any timed window.
func verifyJobs(ctx context.Context, r *Run, jobs []jobResult) error {
	for _, j := range jobs {
		if j.err != nil {
			r.Op(j.err)
			continue
		}
		sc, _ := scenario.Find(j.req.Scenario)
		out, err := sc.RunOpts(ctx, j.req.Seed, scenario.Opts{N: j.req.N, Trials: j.req.Trials, Workers: r.Workers})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			r.Op(err)
			continue
		}
		want, err := json.Marshal(out)
		if err == nil && !bytes.Equal(j.got, want) {
			err = fmt.Errorf("%s seed %d: daemon result differs from an in-process run", j.req.Scenario, j.req.Seed)
		}
		r.Op(err)
	}
	return nil
}

// mixed is one booted serve-mixed daemon with its warmed identities.
type mixed struct {
	n     *node
	warm  []service.JobRequest
	bytes [][]byte
}

// mixedWorkers is the serve-mixed daemon's engine worker count: one
// fewer than nproc, at least one. The load generator shares the daemon's
// process, so an engine on every CPU would starve the generator and the
// HTTP handlers alike, and the cached latencies would measure the Go
// scheduler's preemption rather than the service.
func mixedWorkers(r *Run) int { return max(1, r.Workers-1) }

func setupMixed(ctx context.Context, r *Run, i int) (*mixed, error) {
	dir, err := r.scratch(fmt.Sprintf("mixed-%d", i))
	if err != nil {
		return nil, err
	}
	if err := requireRows([]string{freshScenario, certScenario}); err != nil {
		return nil, err
	}
	n, err := startNode(service.Config{CacheDir: dir, Version: serveVersion, Workers: mixedWorkers(r)})
	if err != nil {
		return nil, err
	}
	m := &mixed{n: n}
	for k := 0; k < warmIdentities; k++ {
		m.warm = append(m.warm, service.JobRequest{Scenario: freshScenario, N: freshN, Trials: warmTrials, Seed: classSeed(r.Seed, classWarm, k)})
	}
	sts, err := n.client.Submit(ctx, m.warm)
	if err != nil {
		n.stop()
		return nil, err
	}
	for _, st := range sts {
		if st, err = n.client.Wait(ctx, st.ID); err == nil && st.Status != service.StatusDone {
			err = fmt.Errorf("warm-up job ended %s: %s", st.Status, st.Error)
		}
		if err != nil {
			n.stop()
			return nil, err
		}
		m.bytes = append(m.bytes, st.Result)
	}
	return m, nil
}

// mixedB is what connection B measured.
type mixedB struct {
	fresh, cert, cycle []float64 // ms
	queued, running    []float64 // ms per fresh job: submit→running, running→done
	jobs               []jobResult
	certs              []service.CertRequest
	certBytes          [][]byte
	errs               []error
}

// runConnB is connection B's closed loop: a fresh trial job, then a small
// certification sweep, until stop closes.
func runConnB(ctx context.Context, r *Run, c *service.Client, stop <-chan struct{}) *mixedB {
	b := &mixedB{}
	for j := 0; ; j++ {
		select {
		case <-stop:
			return b
		default:
		}
		t0 := time.Now()
		req := service.JobRequest{Scenario: freshScenario, N: freshN, Trials: freshTrials, Seed: classSeed(r.Seed, classFresh, j)}
		var running time.Time
		_, end := r.Trace.Begin("service.http.fresh", 0, int64(j+1))
		st, err := submitWait(ctx, c, req, func(s service.JobStatus, at time.Time) {
			if s == service.StatusRunning {
				running = at
			}
		})
		end()
		t1 := time.Now()
		b.fresh = append(b.fresh, ms(t1.Sub(t0)))
		if !running.IsZero() {
			b.queued = append(b.queued, ms(running.Sub(t0)))
			b.running = append(b.running, ms(t1.Sub(running)))
		}
		b.jobs = append(b.jobs, jobResult{req: req, got: st.Result, err: err})

		creq := service.CertRequest{Scenario: certScenario, Seed: classSeed(r.Seed, classCert, j)}
		_, end = r.Trace.Begin("service.http.certify", 0, int64(j+1))
		cst, err := certWait(ctx, c, creq)
		end()
		t2 := time.Now()
		b.cert = append(b.cert, ms(t2.Sub(t1)))
		b.cycle = append(b.cycle, ms(t2.Sub(t0)))
		if err != nil {
			b.errs = append(b.errs, err)
			continue
		}
		b.certs = append(b.certs, creq)
		b.certBytes = append(b.certBytes, cst.Result)
	}
}

func certWait(ctx context.Context, c *service.Client, req service.CertRequest) (service.CertState, error) {
	sts, err := c.SubmitCerts(ctx, []service.CertRequest{req})
	if err != nil {
		return service.CertState{}, err
	}
	if len(sts) != 1 {
		return service.CertState{}, fmt.Errorf("certify returned %d states", len(sts))
	}
	st := sts[0]
	if !st.Status.Terminal() {
		if st, err = c.WaitCert(ctx, st.ID); err != nil {
			return st, err
		}
	}
	if st.Status != service.StatusDone {
		return st, fmt.Errorf("certify %s ended %s: %s", req.Scenario, st.Status, st.Error)
	}
	return st, nil
}

// runServeMixed is the serve-mixed workload: open-loop cached replays on
// connection A against a closed loop of fresh jobs and certificates on
// connection B, through one single-role daemon.
func runServeMixed(ctx context.Context, r *Run) error {
	m, err := medianSetup(r, setupRepeats, func(i int) (*mixed, error) { return setupMixed(ctx, r, i) }, func(m *mixed) { m.n.stop() })
	if err != nil {
		return err
	}
	defer m.n.stop()
	c := m.n.client
	before, err := c.Stats(ctx)
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	var b *mixedB
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b = runConnB(ctx, r, c, stop)
	}()

	// Connection A. In the traced run every HTTP replay is followed by the
	// same replay submitted in-process, under the same background load.
	var aErrs []error
	var inproc []float64
	sched := m.n.srv.Scheduler()
	start := time.Now()
	a := OpenLoop(ctx, mixedRate, r.Window, func(i int) {
		k := i % warmIdentities
		_, end := r.Trace.Begin("service.http.cached", 0, int64(i+1))
		sts, err := c.Submit(ctx, []service.JobRequest{m.warm[k]})
		end()
		switch {
		case err != nil:
		case len(sts) != 1 || sts[0].Status != service.StatusDone:
			err = fmt.Errorf("cached replay %d: not answered at once", i)
		case !bytes.Equal(sts[0].Result, m.bytes[k]):
			err = fmt.Errorf("cached replay %d: bytes differ from the warmed result", i)
		}
		aErrs = append(aErrs, err)
		if r.Trace != nil {
			_, end := r.Trace.Begin("service.inproc.cached", 0, int64(i+1))
			t := time.Now()
			jobs, err := sched.Submit([]service.JobRequest{m.warm[k]})
			if err == nil {
				<-jobs[0].Done()
			}
			inproc = append(inproc, float64(time.Since(t).Nanoseconds())/1e3)
			end()
		}
	})
	close(stop)
	wg.Wait()
	window := time.Since(start)
	after, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	for _, err := range aErrs {
		r.Op(err)
	}
	for _, err := range b.errs {
		r.Op(err)
	}
	// Verification, outside the timed window: the warmed identities and
	// fresh jobs against direct runs, the certificates against direct
	// certification.
	warm := make([]jobResult, len(m.warm))
	for k := range m.warm {
		warm[k] = jobResult{req: m.warm[k], got: m.bytes[k]}
	}
	if err := verifyJobs(ctx, r, append(warm, b.jobs...)); err != nil {
		return err
	}
	sc, _ := scenario.Find(certScenario)
	for i, req := range b.certs {
		cert, err := equilibrium.Certify(ctx, sc, req.Seed, equilibrium.Options{Version: serveVersion, Workers: r.Workers})
		if err == nil {
			want, merr := json.Marshal(cert)
			if err = merr; err == nil && !bytes.Equal(want, b.certBytes[i]) {
				err = fmt.Errorf("certificate %s seed %d differs from direct certification", req.Scenario, req.Seed)
			}
		}
		r.Op(err)
	}

	// p50_ms is the cached replays' median and p90_ms the fresh jobs'
	// tail: the cached tail, a millisecond or two, moved by half its value
	// from run to run with the host's load, so it is reported below as
	// cached_p99_ms but not put in the result line.
	r.Median("p50_ms", "ms", a.Latency)
	r.Tail("p90_ms", "ms", b.fresh, 0.90)
	r.Median("cached_p50_ms", "ms", a.Latency)
	r.Tail("cached_p99_ms", "ms", a.Latency, 0.99)
	r.Median("fresh_p50_ms", "ms", b.fresh)
	r.Tail("fresh_p90_ms", "ms", b.fresh, 0.90)
	r.Median("certify_p50_ms", "ms", b.cert)
	cycles := make([]float64, len(b.cycle))
	for i, x := range b.cycle {
		cycles[i] = x / 1e3
	}
	r.Median("sweep_s", "s", cycles)
	r.Set("jobs_per_s", "1/s", float64(len(b.fresh)+len(b.cert))/window.Seconds(), len(b.fresh)+len(b.cert))

	r.Tail("loadgen.lag_ms.p99", "ms", a.Lag, 0.99)
	r.Tail("loadgen.lag_ms.max", "ms", a.Lag, 1)
	r.Median("service.queue_wait_ms.p50", "ms", b.queued)
	r.Median("service.run_ms.p50", "ms", b.running)
	reqs := float64(after.Jobs.Submitted - before.Jobs.Submitted)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	r.Set("service.hit_rate", "share", hits/max(hits+misses, 1), int(hits+misses))
	r.Set("service.disk_probes_per_req", "count", float64(after.Disk.Hits+after.Disk.Misses-before.Disk.Hits-before.Disk.Misses)/max(reqs, 1), int(reqs))
	r.Set("service.fresh_runs", "count", float64(after.Jobs.Fresh-before.Jobs.Fresh), 1)
	r.Set("service.cache_entries", "count", float64(after.Cache.Entries), 1)
	if len(inproc) > 0 {
		s := r.Median("service.inproc_cached_us.p50", "us", inproc)
		r.Tail("service.inproc_cached_us.p99", "us", inproc, 0.99)
		svc := make([]float64, len(a.Latency))
		for i := range svc {
			svc[i] = a.Latency[i] - a.Lag[i]
		}
		r.Set("service.http_overhead_us.p50", "us", Summarize(svc).P50*1e3-s.P50, s.N)
	}
	return nil
}

// fleet is one booted coordinator with its worker node.
type fleet struct {
	coord  *node
	worker *service.Server
}

func (f *fleet) stop() {
	f.worker.Close()
	f.coord.stop()
}

// fleetWorkers is each fleet node's engine worker count: the coordinator
// and the worker node share the process, so each gets half the CPUs, at
// least one, and together they do not oversubscribe the machine.
func fleetWorkers(r *Run) int { return max(1, r.Workers/2) }

func setupFleet(ctx context.Context, r *Run, i int) (*fleet, error) {
	dir, err := r.scratch(fmt.Sprintf("fleet-%d", i))
	if err != nil {
		return nil, err
	}
	if err := requireRows([]string{fleetScenario}); err != nil {
		return nil, err
	}
	coord, err := startNode(service.Config{Role: service.RoleCoordinator, CacheDir: dir, Version: serveVersion, Workers: fleetWorkers(r)})
	if err != nil {
		return nil, err
	}
	worker, err := service.New(service.Config{Addr: "127.0.0.1:0", Role: service.RoleWorker, Join: coord.client.BaseURL(), CacheDir: dir, Version: serveVersion, Workers: fleetWorkers(r)})
	if err != nil {
		coord.stop()
		return nil, err
	}
	f := &fleet{coord: coord, worker: worker}
	warm := service.JobRequest{Scenario: fleetScenario, N: fleetN, Trials: service.DefaultFleetChunk, Seed: classSeed(r.Seed, classWarm, i)}
	if _, err := submitWait(ctx, coord.client, warm, nil); err != nil {
		f.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

// runServeFleet is the serve-fleet workload: one closed-loop caller
// submitting fresh committee jobs to a coordinator with one worker node.
func runServeFleet(ctx context.Context, r *Run) error {
	f, err := medianSetup(r, setupRepeats, func(i int) (*fleet, error) { return setupFleet(ctx, r, i) }, func(f *fleet) { f.stop() })
	if err != nil {
		return err
	}
	defer f.stop()
	c := f.coord.client
	before, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	var lat, passes []float64
	var jobs []jobResult
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < r.Window; p++ {
		var pass time.Duration
		for k := 0; k < fleetPassJobs; k++ {
			j := p*fleetPassJobs + k
			req := service.JobRequest{Scenario: fleetScenario, N: fleetN, Trials: fleetTrials, Seed: classSeed(r.Seed, classFleet, j)}
			_, end := r.Trace.Begin("service.http.fleet", 0, int64(j+1))
			t := time.Now()
			st, err := submitWait(ctx, c, req, nil)
			d := time.Since(t)
			end()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			pass += d
			lat = append(lat, ms(d))
			jobs = append(jobs, jobResult{req: req, got: st.Result, err: err})
		}
		passes = append(passes, pass.Seconds())
	}
	window := time.Since(start)
	after, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if err := verifyJobs(ctx, r, jobs); err != nil {
		return err
	}

	setLatency(r, "", lat)
	setLatency(r, "fleet_", lat)
	r.Median("sweep_s", "s", passes)
	r.Set("jobs_per_s", "1/s", float64(len(lat))/window.Seconds(), len(lat))
	chunks := float64(after.Fleet.ChunksCompleted - before.Fleet.ChunksCompleted)
	r.Set("fleet.remote_chunk_share", "share", float64(after.Fleet.RemoteClaims-before.Fleet.RemoteClaims)/max(chunks, 1), int(chunks))
	r.Set("fleet.chunks_per_job", "count", chunks/float64(len(lat)), len(lat))
	r.Set("fleet.reissued", "count", float64(after.Fleet.Reissued-before.Fleet.Reissued), 1)
	return nil
}
