// Command certsmoke is the end-to-end acceptance harness for the
// certification service: it boots a real fleserve binary on an ephemeral
// port, drives a certification batch over ≥ 10 distinct scenarios through
// POST /certify, and fails unless
//
//   - every sweep completes with a parseable certificate and a verdict,
//   - per-candidate NDJSON progress streamed on at least one watch,
//   - resubmitting the whole batch replays every certificate from the
//     cache byte-for-byte (deterministic sweeps make the replay exact), and
//   - the stats endpoint accounts the sweeps as certificate jobs.
//
// CI runs it via `make certify-smoke`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/equilibrium"
	// Imported for its registrations: the in-process registry must
	// match the daemon's catalog, which embeds the MAR spec twins.
	_ "repro/internal/mardsl/marlib"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/tools/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "certsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("certsmoke: PASS")
}

// smokeTrials is each sweep's per-candidate budget: enough to resolve the
// ε question at the smoke's small sizes (early stopping usually ends
// candidates around a third of it), small enough to keep the smoke quick.
const smokeTrials = 1500

// distinctCount is the number of distinct scenarios the batch certifies.
const distinctCount = 10

func run(args []string) error {
	fs := flag.NewFlagSet("certsmoke", flag.ContinueOnError)
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

	batch := pickDistinct()
	if len(batch) < distinctCount {
		return fmt.Errorf("only %d cheap scenarios available, need %d", len(batch), distinctCount)
	}
	states, err := client.SubmitCerts(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit %d-sweep batch: %w", len(batch), err)
	}

	// Wait on every sweep via the NDJSON stream, collect the certificate
	// bytes, and demand per-candidate progress on the first stream.
	results := make(map[string][]byte, len(batch))
	verdicts := map[equilibrium.Verdict]int{}
	progressed := false
	for i, st := range states {
		final, err := client.WatchCert(ctx, st.ID, func(line service.CertState) {
			if line.Progress != nil {
				progressed = true
			}
		})
		if err != nil {
			return fmt.Errorf("watch %s (%s): %w", st.ID, batch[i].Scenario, err)
		}
		if final.Status != service.StatusDone {
			return fmt.Errorf("sweep %s (%s) finished %s: %s", st.ID, batch[i].Scenario, final.Status, final.Error)
		}
		var cert equilibrium.Certificate
		if err := json.Unmarshal(final.Result, &cert); err != nil {
			return fmt.Errorf("sweep %s: bad certificate bytes: %w", st.ID, err)
		}
		if cert.Key != st.ID {
			return fmt.Errorf("sweep %s: certificate key %s diverges from its job id", st.ID, cert.Key)
		}
		verdicts[cert.Verdict]++
		results[st.ID] = final.Result
	}
	if !progressed {
		return fmt.Errorf("no watch stream carried per-candidate progress")
	}

	// Replays: resubmit the whole batch; every sweep must come back
	// already done with the exact first-run bytes.
	replays, err := client.SubmitCerts(ctx, batch)
	if err != nil {
		return fmt.Errorf("replay batch: %w", err)
	}
	for i, st := range replays {
		if st.Status != service.StatusDone {
			return fmt.Errorf("replay %d (%s) not served from cache: status %s", i, batch[i].Scenario, st.Status)
		}
		if !bytes.Equal(st.Result, results[st.ID]) {
			return fmt.Errorf("replay %d (%s) certificate bytes differ from first computation", i, batch[i].Scenario)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	if st.Jobs.Certificates != int64(2*len(batch)) {
		return fmt.Errorf("stats count %d certificate submissions, want %d", st.Jobs.Certificates, 2*len(batch))
	}
	if st.Jobs.Fresh != int64(len(batch)) {
		return fmt.Errorf("engine ran %d sweeps for %d distinct requests", st.Jobs.Fresh, len(batch))
	}
	if verdicts[equilibrium.VerdictFair]+verdicts[equilibrium.VerdictExploitable] == 0 {
		return fmt.Errorf("every sweep came back inconclusive: the budget resolves nothing")
	}
	fmt.Printf("certsmoke: %d sweeps certified (%d fair, %d exploitable, %d inconclusive), replays byte-identical\n",
		len(batch), verdicts[equilibrium.VerdictFair], verdicts[equilibrium.VerdictExploitable],
		verdicts[equilibrium.VerdictInconclusive])
	return nil
}

// pickDistinct selects distinctCount cheap scenarios — small honest rings
// first, then small attacks — sized for speed, with distinct seeds so the
// batch genuinely mixes content addresses.
func pickDistinct() []service.CertRequest {
	var reqs []service.CertRequest
	add := func(attacks bool) {
		for _, s := range scenario.All() {
			if len(reqs) == distinctCount || (s.Attack != "") != attacks {
				continue
			}
			n := 8
			if s.MinN > n {
				n = s.MinN
			}
			if n > 24 {
				continue // keep the smoke cheap
			}
			reqs = append(reqs, service.CertRequest{
				Scenario: s.Name,
				N:        n,
				Trials:   smokeTrials,
				Seed:     int64(2000 + len(reqs)),
			})
		}
	}
	add(false)
	add(true)
	return reqs
}
