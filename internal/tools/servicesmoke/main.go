// Command servicesmoke is the end-to-end acceptance harness for the
// simulation service: it boots a real fleserve binary on an ephemeral port,
// drives a 100-job concurrent batch (20 distinct scenarios × 5 identical
// submissions each) through the HTTP API, and fails unless
//
//   - every job completes,
//   - the stats endpoint reports a cache hit-rate ≥ 0.8,
//   - every duplicate's streamed result is byte-identical to its first
//     computation, replays stay byte-identical on resubmission, and
//   - each distinct job's result bytes equal a direct in-process
//     scenario run with the same parameters (the service adds transport,
//     never drift).
//
// CI runs it via `make service-smoke`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	// Imported for its registrations: the in-process registry must
	// match the daemon's catalog, which embeds the MAR spec twins.
	_ "repro/internal/mardsl/marlib"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/tools/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "servicesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servicesmoke: PASS")
}

// smokeTrials keeps each distinct job cheap: the point is scheduling and
// caching behaviour, not statistical power.
const smokeTrials = 100

// distinctScenarios picks the uniform-election scenarios the batch mixes.
const distinctCount = 20

func run(args []string) error {
	fs := flag.NewFlagSet("servicesmoke", flag.ContinueOnError)
	bin := fs.String("bin", "bin/fleserve", "path to the fleserve binary under test")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall smoke deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	d, err := daemon.Start(ctx, *bin, "-parallel", "2")
	if err != nil {
		return err
	}
	defer d.Stop()
	addr := d.Addr

	client := service.NewClient("http://" + addr)
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	catalog, err := client.Scenarios(ctx)
	if err != nil {
		return fmt.Errorf("scenarios: %w", err)
	}
	if len(catalog) != len(scenario.All()) {
		return fmt.Errorf("catalog lists %d scenarios, registry has %d", len(catalog), len(scenario.All()))
	}

	// 20 distinct jobs × 5 identical copies = the 100-job batch. Seeds
	// vary per distinct job so nothing collides by accident.
	distinct := pickDistinct(catalog)
	var batch []service.JobRequest
	for copyi := 0; copyi < 5; copyi++ {
		batch = append(batch, distinct...)
	}
	states, err := client.Submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit 100-job batch: %w", err)
	}
	if len(states) != len(batch) {
		return fmt.Errorf("submitted %d jobs, got %d states", len(batch), len(states))
	}
	// The 5 copies of each distinct job must share one content address.
	for i, st := range states {
		if want := states[i%len(distinct)].ID; st.ID != want {
			return fmt.Errorf("job %d (%s) got id %s, its first copy got %s", i, st.Scenario, st.ID, want)
		}
	}

	// Wait on every distinct job via the NDJSON stream and collect the
	// streamed result bytes.
	results := make(map[string][]byte, len(distinct))
	for i := range distinct {
		id := states[i].ID
		final, err := client.Wait(ctx, id)
		if err != nil {
			return fmt.Errorf("wait %s (%s): %w", id, distinct[i].Scenario, err)
		}
		if final.Status != service.StatusDone {
			return fmt.Errorf("job %s (%s) finished %s: %s", id, distinct[i].Scenario, final.Status, final.Error)
		}
		if len(final.Result) == 0 {
			return fmt.Errorf("job %s (%s) finished without result bytes", id, distinct[i].Scenario)
		}
		results[id] = final.Result
	}

	// Replays: resubmit the whole batch once more; every job must come
	// back already done with the exact first-run bytes.
	replays, err := client.Submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("replay batch: %w", err)
	}
	for i, st := range replays {
		if st.Status != service.StatusDone {
			return fmt.Errorf("replay %d (%s) not served from cache: status %s", i, st.Scenario, st.Status)
		}
		if !bytes.Equal(st.Result, results[st.ID]) {
			return fmt.Errorf("replay %d (%s) bytes differ from first computation", i, st.Scenario)
		}
	}

	// Byte-identity against direct in-process runs.
	for i, req := range distinct {
		sc, ok := scenario.Find(req.Scenario)
		if !ok {
			return fmt.Errorf("scenario %q vanished", req.Scenario)
		}
		out, err := sc.RunOpts(ctx, req.Seed, scenario.Opts{N: req.N, Trials: req.Trials, K: req.K, Target: req.Target})
		if err != nil {
			return fmt.Errorf("direct run %s: %w", req.Scenario, err)
		}
		want, err := json.Marshal(out)
		if err != nil {
			return err
		}
		if !bytes.Equal(results[states[i].ID], want) {
			return fmt.Errorf("service result for %s differs from direct run:\nservice: %s\n direct: %s",
				req.Scenario, results[states[i].ID], want)
		}
	}

	// The acceptance bar: ≥ 0.8 job-level hit rate on the 100-job batch
	// (the replay round only pushes it higher).
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	if st.Cache.HitRate < 0.8 {
		return fmt.Errorf("cache hit-rate %.3f < 0.8 (hits=%d misses=%d)", st.Cache.HitRate, st.Cache.Hits, st.Cache.Misses)
	}
	if st.Jobs.Fresh != int64(len(distinct)) {
		return fmt.Errorf("engine ran %d jobs for %d distinct requests", st.Jobs.Fresh, len(distinct))
	}
	if st.Workers.ArenasAllocated == 0 {
		return fmt.Errorf("no persistent arenas allocated")
	}
	if st.Trials.Completed == 0 {
		return fmt.Errorf("stats report zero completed trials")
	}
	fmt.Printf("servicesmoke: %d jobs (%d distinct), hit-rate %.2f, %d trials at %.0f/s, %d arenas\n",
		st.Jobs.Submitted, st.Jobs.Fresh, st.Cache.HitRate, st.Trials.Completed,
		st.Trials.PerSecond, st.Workers.ArenasAllocated)
	return nil
}

// pickDistinct selects distinctCount cheap runnable scenarios, preferring
// honest (attack-free) entries, and sizes them for speed. Seeds differ per
// entry so the batch genuinely mixes content addresses.
func pickDistinct(catalog []scenario.Descriptor) []service.JobRequest {
	var reqs []service.JobRequest
	add := func(attacks bool) {
		for _, d := range catalog {
			if len(reqs) == distinctCount || (d.Attack != "") != attacks {
				continue
			}
			n := 8
			if d.MinN > n {
				n = d.MinN
			}
			reqs = append(reqs, service.JobRequest{
				Scenario: d.Name,
				N:        n,
				Trials:   smokeTrials,
				Seed:     int64(1000 + len(reqs)),
			})
		}
	}
	add(false)
	add(true) // only if fewer than distinctCount honest scenarios exist
	return reqs
}
