// Command fleetsmoke is the end-to-end acceptance harness for the
// multi-node simulation fleet: it boots a real coordinator plus two real
// worker fleserve processes sharing one disk cache directory, then fails
// unless
//
//   - a distributed job completes byte-identical to a direct in-process
//     single-node run, with chunks demonstrably claimed over HTTP,
//   - killing a worker mid-run (SIGKILL, no goodbye) loses nothing: its
//     leases expire, the chunks re-issue, and the bytes still match,
//   - a fleload mixed batch (cached/fresh/certify) against the coordinator
//     finishes with zero errors, and
//   - a coordinator restart on the same cache directory replays every
//     previously computed job from disk with zero fresh engine runs.
//
// CI runs it via `make fleet-smoke`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
		fmt.Fprintln(os.Stderr, "fleetsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("fleetsmoke: PASS")
}

// bigJob is sized to stay in flight long enough to kill a worker mid-run:
// tens of chunks of n=24 trials.
var bigJob = service.JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 60000, Seed: 20180516}

func run(args []string) error {
	fs := flag.NewFlagSet("fleetsmoke", flag.ContinueOnError)
	bin := fs.String("bin", "bin/fleserve", "path to the fleserve binary under test")
	loadBin := fs.String("load", "bin/fleload", "path to the fleload binary under test")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall smoke deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cacheDir, err := os.MkdirTemp("", "fleetsmoke-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	// The reference bytes: a direct in-process run, no service anywhere.
	sc, ok := scenario.Find(bigJob.Scenario)
	if !ok {
		return fmt.Errorf("scenario %q not registered", bigJob.Scenario)
	}
	out, err := sc.RunOpts(ctx, bigJob.Seed, scenario.Opts{N: bigJob.N, Trials: bigJob.Trials})
	if err != nil {
		return fmt.Errorf("direct run: %w", err)
	}
	want, err := json.Marshal(out)
	if err != nil {
		return err
	}

	// Node 1: the coordinator. Short leases so the worker-kill recovery
	// happens within the smoke budget; small chunks so the job spreads.
	coord, err := daemon.Start(ctx, *bin,
		"-role", "coordinator", "-cache-dir", cacheDir,
		"-fleet-chunk", "1000", "-lease", "1s", "-parallel", "1")
	if err != nil {
		return err
	}
	defer coord.Stop()
	url := "http://" + coord.Addr

	// Nodes 2 and 3: workers claiming from the coordinator.
	w1, err := daemon.Start(ctx, *bin, "-role", "worker", "-join", url, "-parallel", "2")
	if err != nil {
		return err
	}
	defer w1.Stop()
	w2, err := daemon.Start(ctx, *bin, "-role", "worker", "-join", url, "-parallel", "2")
	if err != nil {
		return err
	}
	defer w2.Stop()

	client := service.NewClient(url)
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("coordinator healthz: %w", err)
	}

	// Phase 1: distributed job with a mid-run worker kill.
	states, err := client.Submit(ctx, []service.JobRequest{bigJob})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	// Let the fleet sink its teeth in, then kill worker 2 without ceremony.
	time.Sleep(1500 * time.Millisecond)
	w2.Kill()
	fmt.Println("fleetsmoke: killed worker 2 mid-run")

	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if final.Status != service.StatusDone {
		return fmt.Errorf("distributed job finished %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		return fmt.Errorf("fleet result differs from single-node bytes:\n fleet: %s\ndirect: %s", final.Result, want)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	if st.Fleet.RemoteClaims == 0 {
		return fmt.Errorf("no chunks were claimed over HTTP — the workers never participated")
	}
	fmt.Printf("fleetsmoke: distributed job byte-identical (%d chunks, %d remote claims, %d re-issued)\n",
		st.Fleet.ChunksCompleted, st.Fleet.RemoteClaims, st.Fleet.Reissued)

	// Phase 2: fleload mixed batch against the live fleet.
	report := filepath.Join(cacheDir, "fleload.json")
	loadCmd := exec.CommandContext(ctx, *loadBin,
		"-target", url, "-requests", "40", "-rate", "100",
		"-mix", "6:3:1", "-trials", "2000", "-out", report)
	loadCmd.Stdout, loadCmd.Stderr = os.Stdout, os.Stderr
	if err := loadCmd.Run(); err != nil {
		return fmt.Errorf("fleload: %w", err)
	}
	var rep struct {
		Errors        int     `json:"errors"`
		ThroughputRPS float64 `json:"throughput_rps"`
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("fleload report: %w", err)
	}
	if rep.Errors != 0 {
		return fmt.Errorf("fleload recorded %d errors", rep.Errors)
	}
	// throughput_rps counts successful requests only; a clean 40-request
	// batch must therefore report positive successful throughput.
	if rep.ThroughputRPS <= 0 {
		return fmt.Errorf("fleload reported non-positive successful throughput %f", rep.ThroughputRPS)
	}
	fmt.Printf("fleetsmoke: fleload mixed batch clean (%.1f successful rps)\n", rep.ThroughputRPS)

	// Phase 3: coordinator restart. Same cache directory, fresh process —
	// every already-computed identity must replay from disk with zero
	// engine runs.
	coord.Stop()
	coord2, err := daemon.Start(ctx, *bin,
		"-role", "coordinator", "-cache-dir", cacheDir,
		"-fleet-chunk", "1000", "-parallel", "1")
	if err != nil {
		return fmt.Errorf("restart coordinator: %w", err)
	}
	defer coord2.Stop()
	client2 := service.NewClient("http://" + coord2.Addr)

	replay, err := client2.Submit(ctx, []service.JobRequest{bigJob})
	if err != nil {
		return fmt.Errorf("resubmit after restart: %w", err)
	}
	if replay[0].Status != service.StatusDone {
		return fmt.Errorf("restart replay status %s, want immediate done from disk", replay[0].Status)
	}
	if !bytes.Equal(replay[0].Result, want) {
		return fmt.Errorf("restart replay bytes differ from the original computation")
	}
	st2, err := client2.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz after restart: %w", err)
	}
	if st2.Jobs.Fresh != 0 {
		return fmt.Errorf("restarted coordinator ran %d fresh engine jobs, want 0 (disk replay)", st2.Jobs.Fresh)
	}
	if st2.Disk.Hits == 0 {
		return fmt.Errorf("restarted coordinator reports zero disk hits")
	}
	fmt.Printf("fleetsmoke: coordinator restart replayed from disk (%d disk hits, 0 engine runs)\n", st2.Disk.Hits)
	return nil
}
