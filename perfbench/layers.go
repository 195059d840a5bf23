package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/committee"
	"repro/internal/engine"
	"repro/internal/equilibrium"
	"repro/internal/fullnet"
	"repro/internal/popproto"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
)

// traceWindow caps the load phase of each serve workload in the traced
// run, which only has to produce per-layer figures.
const traceWindow = 5 * time.Second

// traced is the per-layer run: the single-layer probes, then every
// workload once with spans around each call into a layer. It reports the
// per-layer metrics; name only has to be a valid workload.
func traced(ctx context.Context, base Run, name string) (result, error) {
	tr := NewTracer()
	r := base
	r.Trace = tr
	r.Window = min(base.Window, traceWindow)
	r.metrics = make(map[string]Metric)
	fmt.Fprintf(r.Log, "traced run (requested workload %s): probes and every workload once\n", name)

	steps := []struct {
		name string
		fn   func(context.Context, *Run) error
	}{
		{"sim", probeSim},
		{"protocols", probeProtocols},
		{"engine", probeEngine},
		{"batch", tracedBatch},
		{"certify", tracedCertify},
		{"serve-mixed", runServeMixed},
		{"serve-fleet", runServeFleet},
		{"cache", probeCaches},
	}
	for _, s := range steps {
		if err := s.fn(ctx, &r); err != nil {
			return result{}, fmt.Errorf("traced %s: %w", s.name, err)
		}
	}
	if err := tr.WriteFile(filepath.Join(filepath.Dir(r.Dir), "trace-"+strconv.FormatInt(r.Seed, 10)+".json")); err != nil {
		return result{}, err
	}
	for name, d := range SelfTimes(tr.Spans()) {
		if !strings.HasPrefix(name, "probe.") {
			r.Set("trace.self_s."+name, "s", d.Seconds(), 1)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(r.Log, "  FAILED %s\n", f)
	}
	printMetrics(r.Log, r.metrics)
	out := newResult(&r)
	for _, m := range perLayer {
		v, ok := r.metrics[m]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m)
		}
		out.Metrics[m] = jsonMetric{Value: v.Value, Unit: v.Unit}
	}
	return out, nil
}

// tokenRing is a trivial ring protocol: one token circulates rounds times
// around the ring and every processor terminates on its last reception.
// Its Receive does almost nothing, so its cost per message is the
// simulator's own.
type tokenRing struct {
	rounds int
	origin bool
	seen   int
}

func (p *tokenRing) Init(ctx *sim.Context) {
	p.seen = 0
	if p.origin {
		ctx.Send(1)
	}
}

func (p *tokenRing) Receive(ctx *sim.Context, _ sim.ProcID, v int64) {
	p.seen++
	if !(p.origin && p.seen == p.rounds) {
		ctx.Send(v + 1)
	}
	if p.seen == p.rounds {
		ctx.Terminate(1)
	}
}

// probeSim times sim.Arena.Run on the token ring under each scheduler,
// single-threaded, and counts allocations per run.
func probeSim(ctx context.Context, r *Run) error {
	// 64 rounds make the per-message cost dominate the per-run reset.
	const n, rounds, runs = 256, 64, 24
	arena := sim.NewArena()
	strategies := make([]sim.Strategy, n)
	for i := range strategies {
		strategies[i] = &tokenRing{rounds: rounds, origin: i == 0}
	}
	scheds := []struct {
		name string
		make func(seed int64) sim.Scheduler
	}{
		{"fifo", func(int64) sim.Scheduler { return sim.FIFOScheduler{} }},
		{"lifo", func(int64) sim.Scheduler { return sim.LIFOScheduler{} }},
		{"random", func(seed int64) sim.Scheduler { return arena.RandomScheduler(seed) }},
	}
	for _, s := range scheds {
		_, end := r.Trace.Begin("probe.sim.Arena.Run."+s.name, 0, 0)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		delivered := 0
		for i := 0; i < runs; i++ {
			res, err := arena.Run(sim.Config{Strategies: strategies, Edges: arena.RingEdges(n), Seed: int64(i), Scheduler: s.make(int64(i))})
			if err == nil && (res.Failed || res.Delivered != n*rounds) {
				err = fmt.Errorf("token ring under %s: failed=%v delivered=%d, want %d", s.name, res.Failed, res.Delivered, n*rounds)
			}
			r.Op(err)
			delivered += res.Delivered
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		end()
		r.Set("sim.ns_per_msg."+s.name, "ns", float64(d.Nanoseconds())/float64(max(delivered, 1)), delivered)
		if s.name == "fifo" {
			r.Set("sim.allocs_per_run", "count", float64(ms1.Mallocs-ms0.Mallocs)/runs, runs)
		}
	}
	return ctx.Err()
}

// probeProtocols times each protocol's own runner single-threaded at the
// batch row's size and reports ns per delivered message (ns per
// interaction for the population model). For the ring protocols it also
// reports ns per Receive: the row minus the simulator's FIFO cost.
func probeProtocols(ctx context.Context, r *Run) error {
	const budget = 400 * time.Millisecond
	simFIFO := r.metrics["sim.ns_per_msg.fifo"].Value
	timeRuns := func(name string, one func(t int) (sim.Result, error)) (float64, error) {
		_, end := r.Trace.Begin(name, 0, 0)
		defer end()
		t0 := time.Now()
		msgs, t := 0, 0
		for ; t < 4 || time.Since(t0) < budget; t++ {
			res, err := one(t)
			if err != nil {
				return 0, fmt.Errorf("%s trial %d: %w", name, t, err)
			}
			msgs += res.Delivered
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(max(msgs, 1)), nil
	}

	arena := sim.NewArena()
	for _, p := range []struct{ pkg, slug string }{
		{"ring", "a-lead"}, {"ring", "basic-lead"}, {"ring", "phase-lead"}, {"mardsl", "mar-basic-lead"},
	} {
		proto, ok := scenario.FindRingProtocol(p.slug)
		if !ok {
			return fmt.Errorf("no ring protocol %s", p.slug)
		}
		n := rowN("ring/" + p.slug + "/")
		ns, err := timeRuns("probe."+p.pkg+".RunArena."+p.slug, func(t int) (sim.Result, error) {
			return ring.RunArena(ring.Spec{N: n, Protocol: proto, Seed: ring.TrialSeed(int64(t), t)}, arena)
		})
		if err != nil {
			return err
		}
		r.Set(p.pkg+".ns_per_msg."+p.slug, "ns", ns, 1)
		r.Set(p.pkg+".receive_ns."+p.slug, "ns", ns-simFIFO, 1)
	}

	ce, err := committee.New(rowN("committee/"), committee.InnerALead)
	if err != nil {
		return err
	}
	cr := ce.Runner()
	ns, err := timeRuns("probe.committee.Runner.Run", func(t int) (sim.Result, error) { return cr.Run(ring.TrialSeed(1, t)) })
	if err != nil {
		return err
	}
	r.Set("committee.ns_per_msg", "ns", ns, 1)

	fe, err := fullnet.New(rowN("complete/"), 0)
	if err != nil {
		return err
	}
	fr := fe.Runner()
	ns, err = timeRuns("probe.fullnet.Runner.Run", func(t int) (sim.Result, error) { return fr.Run(ring.TrialSeed(1, t), nil, arena) })
	if err != nil {
		return err
	}
	r.Set("fullnet.ns_per_msg.shamir", "ns", ns, 1)

	pr, err := popproto.NewRunner(popproto.Config{N: rowN("popproto/")})
	if err != nil {
		return err
	}
	ns, err = timeRuns("probe.popproto.Runner.Run", func(t int) (sim.Result, error) { return pr.Run(ring.TrialSeed(1, t)), nil })
	if err != nil {
		return err
	}
	r.Set("popproto.ns_per_step", "ns", ns, 1)
	return ctx.Err()
}

// rowN returns the size of the first batch row whose name has prefix.
func rowN(prefix string) int {
	for _, row := range batchRows {
		if strings.HasPrefix(row.Name, prefix) {
			return row.N
		}
	}
	panic("perfbench: no batch row with prefix " + prefix)
}

// probeEngine runs one Basic-LEAD batch through engine.RunBatch at 1 and
// nproc workers with every chunk timed, separating chunk work from the
// engine's claim and merge overhead and from idle workers.
func probeEngine(ctx context.Context, r *Run) error {
	const trials, n = 4096, 64
	proto, _ := scenario.FindRingProtocol("basic-lead")
	sink := engine.Sink[*int]{
		New:   func() *int { return new(int) },
		Add:   func(s *int, res sim.Result) { *s += res.Delivered },
		Merge: func(dst, src *int) { *dst += *src },
	}
	measure := func(workers int) (wall, busy time.Duration, chunks int, err error) {
		var busyNS, nChunks atomic.Int64
		job := engine.ChunkFunc(func(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
			t0 := time.Now()
			defer func() {
				busyNS.Add(int64(time.Since(t0)))
				nChunks.Add(1)
			}()
			for t := start; t < end; t++ {
				res, err := ring.RunArena(ring.Spec{N: n, Protocol: proto, Seed: ring.TrialSeed(7, t)}, arena)
				if err != nil {
					return t, err
				}
				add(res)
			}
			return 0, nil
		})
		_, endSpan := r.Trace.Begin("probe.engine.RunBatch.w"+strconv.Itoa(workers), 0, 0)
		t0 := time.Now()
		msgs, err := engine.RunBatch(ctx, trials, job, sink, engine.Options[*int]{Workers: workers})
		wall = time.Since(t0)
		endSpan()
		busy, chunks = time.Duration(busyNS.Load()), int(nChunks.Load())
		if err == nil && *msgs != trials*n*n {
			err = fmt.Errorf("engine batch delivered %d messages, want %d", *msgs, trials*n*n)
		}
		r.Op(err)
		return wall, busy, chunks, err
	}
	w1, busy1, chunks1, err := measure(1)
	if err != nil {
		return err
	}
	wmax, busyMax, _, err := measure(r.Workers)
	if err != nil {
		return err
	}
	tps1, tpsMax := trials/w1.Seconds(), trials/wmax.Seconds()
	r.Set("engine.trials_per_s.w1", "1/s", tps1, trials)
	r.Set("engine.trials_per_s.wmax", "1/s", tpsMax, trials)
	r.Set("engine.scaling_eff", "share", tpsMax/tps1/float64(r.Workers), r.Workers)
	r.Set("engine.overhead_ns_per_chunk", "ns", float64((w1-busy1).Nanoseconds())/float64(chunks1), chunks1)
	r.Set("engine.idle_share", "share", 1-busyMax.Seconds()/(wmax.Seconds()*float64(r.Workers)), r.Workers)
	return nil
}

// tracedBatch runs untraced and traced batch passes alternately; their
// ratio is the tracing overhead, and the traced passes give the per-row
// figures.
func tracedBatch(ctx context.Context, r *Run) error {
	s, err := setupBatch(ctx, r)
	if err != nil {
		return err
	}
	const passes = 3
	var plain, traced []float64
	perTrial := make([][]float64, len(batchRows))
	tr := r.Trace
	for p := 0; p < passes; p++ {
		seed := s.exp.Seeds[int(uint64(r.Seed)+uint64(p))%len(s.exp.Seeds)]
		r.Trace = nil
		wall, _, _, err := batchPass(ctx, r, s, seed)
		r.Trace = tr
		if err != nil {
			return err
		}
		plain = append(plain, wall.Seconds())
		wall, rows, outs, err := batchPass(ctx, r, s, seed)
		if err != nil {
			return err
		}
		traced = append(traced, wall.Seconds())
		for i, row := range batchRows {
			perTrial[i] = append(perTrial[i], float64(rows[i].Nanoseconds())/float64(s.trials[i]))
			if outs[i] != nil {
				r.Set(row.Pkg+".msgs_per_trial."+rowKey(row.Name), "count", float64(outs[i].Messages)/float64(outs[i].Trials), outs[i].Trials)
			}
		}
	}
	for i, row := range batchRows {
		r.Median("scenario.ns_per_trial."+rowKey(row.Name), "ns", perTrial[i])
	}
	r.Set("trace.overhead_share", "share", Summarize(traced).P50/Summarize(plain).P50, passes)
	return nil
}

// tracedCertify runs one catalog pass with a span per Certify call and
// child spans per candidate, cut at the Progress callbacks.
func tracedCertify(ctx context.Context, r *Run) error {
	s, err := setupCertify(ctx, r)
	if err != nil {
		return err
	}
	var candidates, verdicts, spent, budget int
	opts := certOptions()
	var certID, req int64
	var last time.Time
	opts.Progress = func(p equilibrium.Progress) {
		// A candidate's span runs from the previous candidate's end (or
		// the start of the Certify call) to its own Progress callback.
		now := time.Now()
		r.Trace.Record("equilibrium.candidate", certID, req, last, now)
		last = now
		candidates++
		spent += p.Trials
	}
	t0 := time.Now()
	for _, i := range rand.New(rand.NewSource(r.Seed)).Perm(len(s.scs)) {
		req = int64(i + 1)
		id, end := r.Trace.Begin("equilibrium.Certify", 0, req)
		certID, last = id, time.Now()
		c, err := equilibrium.Certify(ctx, s.scs[i], certSeed, opts)
		end()
		if err == nil {
			err = CheckCert(s.want, c)
			verdicts++
			budget += len(c.Candidates) * c.Trials
		}
		r.Op(err)
	}
	wall := time.Since(t0)
	r.Set("equilibrium.trials_per_verdict", "count", float64(spent)/float64(max(verdicts, 1)), verdicts)
	r.Set("equilibrium.candidates_per_verdict", "count", float64(candidates)/float64(max(verdicts, 1)), verdicts)
	r.Set("equilibrium.budget_used_share", "share", float64(spent)/float64(max(budget, 1)), candidates)
	r.Set("equilibrium.ms_per_candidate", "ms", ms(wall)/float64(max(candidates, 1)), candidates)
	return nil
}

// probeCaches times the in-memory result cache at the serve-mixed
// workload's entry count and the disk tier's Get and Put.
func probeCaches(ctx context.Context, r *Run) error {
	entries := int(r.metrics["service.cache_entries"].Value)
	if entries < 1 {
		return fmt.Errorf("serve-mixed reported no cache entries")
	}
	val := make([]byte, 1024)
	keys := make([]string, entries)
	c := service.NewCache(entries)
	for i := range keys {
		h := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(h[:])
		c.Put(keys[i], val)
	}
	const gets = 200000
	_, end := r.Trace.Begin("probe.cache.Get", 0, 0)
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := c.Get(keys[i%entries]); !ok {
			r.Op(fmt.Errorf("cache lost key %d", i%entries))
		}
	}
	r.Set("cache.get_ns", "ns", float64(time.Since(t0).Nanoseconds())/gets, gets)
	end()

	dir, err := r.scratch("diskcache")
	if err != nil {
		return err
	}
	st, err := diskcache.Open(dir)
	if err != nil {
		return err
	}
	const ops = 64
	diskKeys := make([]string, ops)
	for i := range diskKeys {
		h := sha256.Sum256([]byte("disk" + strconv.Itoa(i)))
		diskKeys[i] = hex.EncodeToString(h[:])
	}
	var puts, getsUS []float64
	for _, key := range diskKeys {
		_, end := r.Trace.Begin("probe.diskcache.Put", 0, 0)
		t := time.Now()
		err := st.Put(key, val)
		puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
		end()
		r.Op(err)
	}
	for i, key := range diskKeys {
		_, end := r.Trace.Begin("probe.diskcache.Get", 0, 0)
		t := time.Now()
		got, ok, err := st.Get(key)
		getsUS = append(getsUS, float64(time.Since(t).Nanoseconds())/1e3)
		end()
		if err == nil && (!ok || len(got) != len(val)) {
			err = fmt.Errorf("diskcache lost entry %d", i)
		}
		r.Op(err)
	}
	r.Median("diskcache.put_us", "us", puts)
	r.Median("diskcache.get_us", "us", getsUS)
	return ctx.Err()
}

// workloadSpans names the spans the workloads record around their calls
// into the program; the probes' spans carry a "probe." prefix instead and
// get no self-time metric, since each probe runs for a fixed time.
var workloadSpans = []string{
	"bench.batch.pass", "scenario.RunOpts", "equilibrium.Certify", "equilibrium.candidate",
	"service.http.cached", "service.inproc.cached", "service.http.fresh", "service.http.certify",
	"service.http.fleet",
}

// perLayer lists the metrics the traced run reports in its result line.
var perLayer = func() []string {
	out := []string{
		"sim.ns_per_msg.fifo", "sim.ns_per_msg.lifo", "sim.ns_per_msg.random", "sim.allocs_per_run",
		"ring.ns_per_msg.a-lead", "ring.ns_per_msg.basic-lead", "ring.ns_per_msg.phase-lead",
		"mardsl.ns_per_msg.mar-basic-lead",
		"ring.receive_ns.a-lead", "ring.receive_ns.basic-lead", "ring.receive_ns.phase-lead",
		"mardsl.receive_ns.mar-basic-lead",
		"committee.ns_per_msg", "fullnet.ns_per_msg.shamir", "popproto.ns_per_step",
		"engine.trials_per_s.w1", "engine.trials_per_s.wmax", "engine.scaling_eff",
		"engine.overhead_ns_per_chunk", "engine.idle_share",
		"equilibrium.trials_per_verdict", "equilibrium.candidates_per_verdict",
		"equilibrium.budget_used_share", "equilibrium.ms_per_candidate",
		"service.inproc_cached_us.p50", "service.inproc_cached_us.p99", "service.http_overhead_us.p50",
		"service.queue_wait_ms.p50", "service.run_ms.p50",
		"service.hit_rate", "service.disk_probes_per_req", "service.fresh_runs",
		"cache.get_ns", "diskcache.get_us", "diskcache.put_us",
		"fleet.remote_chunk_share", "fleet.chunks_per_job", "fleet.reissued",
		"loadgen.lag_ms.p99", "loadgen.lag_ms.max", "trace.overhead_share",
	}
	for _, row := range batchRows {
		out = append(out, row.Pkg+".msgs_per_trial."+rowKey(row.Name), "scenario.ns_per_trial."+rowKey(row.Name))
	}
	for _, span := range workloadSpans {
		out = append(out, "trace.self_s."+span)
	}
	sort.Strings(out)
	return out
}()
