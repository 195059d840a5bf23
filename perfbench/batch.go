package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/equilibrium"
	_ "repro/internal/mardsl/marlib" // registers the ring/mar-basic-lead/* rows
	"repro/internal/scenario"
)

// expectedPath is the committed digest table, relative to the checkout
// root the benchmark runs from.
const expectedPath = "perfbench/expected.json"

// certificatesPath is the committed full-catalog certificate table.
const certificatesPath = "CERTIFICATES.md"

// regenSeeds are the seeds the digest table covers; the workload seed
// picks where in this list a run starts.
var regenSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// writeExpected records the batch digests at every seed in regenSeeds.
// It is how expected.json is regenerated after a deliberate change to
// the simulation contract.
func writeExpected(ctx context.Context, path string) error {
	e := Expected{Contract: scenario.SimContract, Seeds: regenSeeds, Digests: map[string]map[string]string{}}
	for _, row := range batchRows {
		sc, ok := scenario.Find(row.Name)
		if !ok {
			return fmt.Errorf("no scenario %s", row.Name)
		}
		e.Digests[row.Name] = map[string]string{}
		for _, s := range regenSeeds {
			out, err := sc.RunOpts(ctx, s, scenario.Opts{N: row.N})
			if err != nil {
				return err
			}
			b, err := json.Marshal(out)
			if err != nil {
				return err
			}
			e.Digests[row.Name][strconv.FormatInt(s, 10)] = digest(b)
		}
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// rowWorkers is the engine worker count of the batch rows and of the
// certifier. With a worker on every CPU a batch waits for the slower
// worker, and the Go runtime's own threads compete with both: on a shared
// 2-vCPU host, in two sets of five and six interleaved runs of each,
// batch's sweep_s spread (quartile distance over median) 0.09 and 0.10
// with two workers against 0.03 and 0.08 with one. Parallel scaling is
// measured per layer by the engine probes (engine.trials_per_s.wmax,
// engine.scaling_eff).
const rowWorkers = 1

// batchSetup is what the batch workload resolves before timing.
type batchSetup struct {
	exp    *Expected
	scs    []scenario.Scenario
	trials []int
}

func setupBatch(ctx context.Context, r *Run) (batchSetup, error) {
	names := make([]string, len(batchRows))
	for i, row := range batchRows {
		names[i] = row.Name
	}
	if err := requireRows(names); err != nil {
		return batchSetup{}, err
	}
	exp, err := LoadExpected(expectedPath)
	if err != nil {
		return batchSetup{}, err
	}
	s := batchSetup{exp: exp}
	for _, row := range batchRows {
		sc, _ := scenario.Find(row.Name)
		_, trials := sc.Resolve(scenario.Opts{N: row.N})
		// Warm-up: one small batch per row builds the protocol tables and
		// arenas the timed batches reuse.
		if _, err := sc.RunOpts(ctx, 0, scenario.Opts{N: row.N, Trials: 4, Workers: rowWorkers}); err != nil {
			return batchSetup{}, fmt.Errorf("warm-up %s: %w", row.Name, err)
		}
		s.scs = append(s.scs, sc)
		s.trials = append(s.trials, trials)
	}
	return s, nil
}

// batchPass runs every batch row once at one seed and checks each outcome
// after the pass. It returns the pass's wall time, per-row times and
// outcomes.
func batchPass(ctx context.Context, r *Run, s batchSetup, seed int64) (time.Duration, []time.Duration, []*scenario.Outcome, error) {
	outs := make([]*scenario.Outcome, len(batchRows))
	rows := make([]time.Duration, len(batchRows))
	pass, endPass := r.Trace.Begin("bench.batch.pass", 0, seed)
	t0 := time.Now()
	for i, row := range batchRows {
		_, end := r.Trace.Begin("scenario.RunOpts", pass, seed)
		t := time.Now()
		out, err := s.scs[i].RunOpts(ctx, seed, scenario.Opts{N: row.N, Workers: rowWorkers})
		rows[i] = time.Since(t)
		end()
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, nil, ctx.Err()
			}
			r.Op(fmt.Errorf("%s: %w", row.Name, err))
			continue
		}
		outs[i] = out
	}
	wall := time.Since(t0)
	endPass()
	for i, row := range batchRows {
		if outs[i] != nil {
			r.Op(CheckBatch(s.exp, row, seed, outs[i]))
		}
	}
	return wall, rows, outs, nil
}

// runBatch is the batch workload: the fixed row list, repeated until the
// window closes, each pass at the next seed of the committed digest table.
// The first pass warms the process and is checked but not timed, so runs
// that fit a different number of passes in the window stay comparable.
func runBatch(ctx context.Context, r *Run) error {
	s, err := medianSetup(r, setupRepeats, func(int) (batchSetup, error) { return setupBatch(ctx, r) }, func(batchSetup) {})
	if err != nil {
		return err
	}
	var passes []float64
	rowMS := make([][]float64, len(batchRows))
	perTrial := make([][]float64, len(batchRows))
	start := time.Now()
	for p := 0; p < 2 || time.Since(start) < r.Window; p++ {
		seed := s.exp.Seeds[int(uint64(r.Seed)+uint64(p))%len(s.exp.Seeds)]
		wall, rows, _, err := batchPass(ctx, r, s, seed)
		if err != nil {
			return err
		}
		if p == 0 {
			r.Set("warmup_pass_s", "s", wall.Seconds(), 1) // checked, not timed
			continue
		}
		passes = append(passes, wall.Seconds())
		for i, d := range rows {
			rowMS[i] = append(rowMS[i], ms(d))
			perTrial[i] = append(perTrial[i], float64(d.Nanoseconds())/float64(s.trials[i]))
		}
	}
	r.Median("sweep_s", "s", passes)
	setLatency(r, "", rowMidMeans(rowMS))
	for i, row := range batchRows {
		r.Median("scenario.ns_per_trial."+rowKey(row.Name), "ns", perTrial[i])
	}
	return nil
}

// rowMidMeans returns each row's mid-mean (MidMean) over its calls. The
// workload's latency percentiles are taken over these, one value per row,
// so one preempted call does not move them.
func rowMidMeans(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, xs := range rows {
		out[i] = MidMean(xs)
	}
	return out
}

// setLatency reports a latency population as <prefix>p50_ms (median) and
// <prefix>p90_ms (nearest rank).
func setLatency(r *Run, prefix string, xs []float64) {
	r.Median(prefix+"p50_ms", "ms", xs)
	r.Tail(prefix+"p90_ms", "ms", xs, 0.90)
}

// certSetup is what the certify workload resolves before timing.
type certSetup struct {
	want map[string]CertRow
	scs  []scenario.Scenario
}

func setupCertify(ctx context.Context, r *Run) (certSetup, error) {
	if err := requireRows(nil); err != nil {
		return certSetup{}, err
	}
	f, err := os.Open(certificatesPath)
	if err != nil {
		return certSetup{}, err
	}
	defer f.Close()
	want, err := ParseCertificates(f)
	if err != nil {
		return certSetup{}, err
	}
	s := certSetup{want: want, scs: scenario.All()}
	for _, sc := range s.scs {
		if _, ok := want[sc.Name]; !ok {
			return certSetup{}, fmt.Errorf("%s has no row for %s", certificatesPath, sc.Name)
		}
	}
	if len(want) != len(s.scs) {
		return certSetup{}, fmt.Errorf("%s has %d rows, the registry %d", certificatesPath, len(want), len(s.scs))
	}
	// Warm-up: one honest row with several deviation families.
	sc, _ := scenario.Find("ring/a-lead/fifo")
	if _, err := equilibrium.Certify(ctx, sc, certSeed, certOptions()); err != nil {
		return certSetup{}, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// certOptions are CERTIFICATES.md's settings: default ε, α and budgets,
// and the "dev" code version its digests were computed under, on
// rowWorkers engine workers.
func certOptions() equilibrium.Options {
	return equilibrium.Options{Workers: rowWorkers, Version: "dev"}
}

// certifyPass certifies the whole catalog once in the given order and
// checks every certificate after the pass. rows[i] is the time of the
// catalog's i-th scenario.
func certifyPass(ctx context.Context, r *Run, s certSetup, order []int) (time.Duration, []time.Duration, error) {
	certs := make([]*equilibrium.Certificate, 0, len(order))
	rows := make([]time.Duration, len(s.scs))
	t0 := time.Now()
	for _, i := range order {
		sc := s.scs[i]
		t := time.Now()
		c, err := equilibrium.Certify(ctx, sc, certSeed, certOptions())
		rows[i] = time.Since(t)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			r.Op(fmt.Errorf("certify %s: %w", sc.Name, err))
			continue
		}
		certs = append(certs, c)
	}
	wall := time.Since(t0)
	for _, c := range certs {
		r.Op(CheckCert(s.want, c))
	}
	return wall, rows, nil
}

// Rows that took under shortRowMS in the first pass are certified
// shortRounds more times after every pass, round-robin and outside
// sweep_s, so that their call time rests on many samples spread over
// several seconds: one certificate of a few milliseconds is at the mercy
// of a single preemption, GC cycle or slow second of the host, and the
// catalog's median row is such a row. The long rows, which set p90_ms,
// hold most of a pass's time and are not repeated.
const (
	shortRowMS  = 75
	shortRounds = 24
)

// runCertify is the certify workload: full-catalog certification at the
// committed seed, repeated until the window closes. Unlike runBatch, every
// pass is timed: set-up's warm-up certificate leaves the first pass no
// slower than a second one.
func runCertify(ctx context.Context, r *Run) error {
	s, err := medianSetup(r, setupRepeats, func(int) (certSetup, error) { return setupCertify(ctx, r) }, func(certSetup) {})
	if err != nil {
		return err
	}
	order := rand.New(rand.NewSource(r.Seed))
	var passes []float64
	var short []int
	rowMS := make([][]float64, len(s.scs))
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < r.Window; p++ {
		wall, rows, err := certifyPass(ctx, r, s, order.Perm(len(s.scs)))
		if err != nil {
			return err
		}
		passes = append(passes, wall.Seconds())
		for i, d := range rows {
			rowMS[i] = append(rowMS[i], ms(d))
			if p == 0 && ms(d) < shortRowMS {
				short = append(short, i)
			}
		}
		for k := 0; k < shortRounds; k++ {
			if err := certifyRound(ctx, r, s, short, rowMS); err != nil {
				return err
			}
		}
	}
	r.Median("sweep_s", "s", passes)
	setLatency(r, "", rowMidMeans(rowMS))
	return nil
}

// certifyRound certifies each of the given rows once, checks every
// certificate and appends the call times to rowMS.
func certifyRound(ctx context.Context, r *Run, s certSetup, rows []int, rowMS [][]float64) error {
	for _, i := range rows {
		t := time.Now()
		c, err := equilibrium.Certify(ctx, s.scs[i], certSeed, certOptions())
		rowMS[i] = append(rowMS[i], ms(time.Since(t)))
		if err == nil {
			err = CheckCert(s.want, c)
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		r.Op(err)
	}
	return nil
}
