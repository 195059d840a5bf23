// Command dslsmoke is the end-to-end acceptance harness for the MAR spec
// pipeline: it generates a protocol spec and an adversary spec from a
// fixed seed, registers them in-process, writes them to disk, boots a real
// fleserve binary with the same files on its -mar flag, and fails unless
//
//   - the daemon's catalog lists every generated scenario and matches the
//     in-process registry entry for entry,
//   - a trial job on a generated scenario streams result bytes identical
//     to a direct in-process run with the same parameters, and
//   - a certification sweep over the generated adversary completes with a
//     parseable certificate carrying a verdict.
//
// CI runs it via `make dsl-smoke`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/equilibrium"
	"repro/internal/mardsl"
	"repro/internal/mardsl/marlib"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/tools/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dslsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("dslsmoke: PASS")
}

func run(args []string) error {
	fs := flag.NewFlagSet("dslsmoke", flag.ContinueOnError)
	bin := fs.String("bin", "bin/fleserve", "path to the fleserve binary under test")
	seed := fs.Int64("seed", 20180516, "generator seed for the smoke specs")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall smoke deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Generate both spec kinds, register them in this process (the
	// reference registry), and persist them for the daemon's -mar flag.
	dir, err := os.MkdirTemp("", "dslsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	specs := []struct{ kind, src string }{
		{"protocol.mar", mardsl.GenerateProtocol(*seed)},
		{"adversary.mar", mardsl.GenerateAdversary(*seed)},
	}
	var files, names []string
	for _, sp := range specs {
		kind, src := sp.kind, sp.src
		path := filepath.Join(dir, kind)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		got, err := marlib.Register(src)
		if err != nil {
			return fmt.Errorf("register %s: %w", kind, err)
		}
		files = append(files, path)
		names = append(names, got...)
	}
	if len(names) != 4 {
		return fmt.Errorf("generated specs registered %d scenarios, want 4 (3 honest + 1 attack): %v", len(names), names)
	}

	daemonArgs := []string{"-parallel", "1"}
	for _, f := range files {
		daemonArgs = append(daemonArgs, "-mar", f)
	}
	d, err := daemon.Start(ctx, *bin, daemonArgs...)
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
		return fmt.Errorf("daemon lists %d scenarios, local registry has %d", len(catalog), len(scenario.All()))
	}
	listed := make(map[string]bool, len(catalog))
	for _, d := range catalog {
		listed[d.Name] = true
	}
	for _, name := range names {
		if !listed[name] {
			return fmt.Errorf("daemon catalog is missing generated scenario %s", name)
		}
	}

	// One trial job per generated scenario: the daemon's streamed result
	// bytes must equal a direct in-process run.
	var batch []service.JobRequest
	for i, name := range names {
		batch = append(batch, service.JobRequest{Scenario: name, Trials: 120, Seed: int64(4000 + i)})
	}
	states, err := client.Submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for i, st := range states {
		final, err := client.Wait(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("wait %s (%s): %w", st.ID, batch[i].Scenario, err)
		}
		if final.Status != service.StatusDone {
			return fmt.Errorf("job %s (%s) finished %s: %s", st.ID, batch[i].Scenario, final.Status, final.Error)
		}
		sc, ok := scenario.Find(batch[i].Scenario)
		if !ok {
			return fmt.Errorf("scenario %q vanished locally", batch[i].Scenario)
		}
		out, err := sc.RunOpts(ctx, batch[i].Seed, scenario.Opts{Trials: batch[i].Trials})
		if err != nil {
			return fmt.Errorf("direct run %s: %w", batch[i].Scenario, err)
		}
		want, err := json.Marshal(out)
		if err != nil {
			return err
		}
		if !bytes.Equal(final.Result, want) {
			return fmt.Errorf("service result for %s differs from direct run:\nservice: %s\n direct: %s",
				batch[i].Scenario, final.Result, want)
		}
	}

	// Certify the generated adversary's attack scenario through the
	// daemon: the sweep must finish with a verdict-bearing certificate.
	attack := names[len(names)-1]
	certs, err := client.SubmitCerts(ctx, []service.CertRequest{{Scenario: attack, Trials: 600, Seed: 9}})
	if err != nil {
		return fmt.Errorf("submit cert: %w", err)
	}
	final, err := client.WatchCert(ctx, certs[0].ID, func(service.CertState) {})
	if err != nil {
		return fmt.Errorf("watch cert %s: %w", certs[0].ID, err)
	}
	if final.Status != service.StatusDone {
		return fmt.Errorf("sweep %s finished %s: %s", certs[0].ID, final.Status, final.Error)
	}
	var cert equilibrium.Certificate
	if err := json.Unmarshal(final.Result, &cert); err != nil {
		return fmt.Errorf("bad certificate bytes: %w", err)
	}
	switch cert.Verdict {
	case equilibrium.VerdictFair, equilibrium.VerdictExploitable, equilibrium.VerdictInconclusive:
	default:
		return fmt.Errorf("certificate for %s carries no verdict: %s", attack, final.Result)
	}
	fmt.Printf("dslsmoke: %d generated scenarios served byte-identically, %s certified %s\n",
		len(names), attack, cert.Verdict)
	return nil
}
