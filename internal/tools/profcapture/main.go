// Command profcapture captures a CPU profile of a live fleserve daemon
// under load: it boots the real binary with -pprof on an ephemeral port,
// submits an E5-shaped job batch (honest A-LEADuni at n=64, the workload
// behind the suite's heaviest resilience table), pulls
// /debug/pprof/profile while the engine is busy, and writes the profile
// for `go tool pprof`. The outstanding jobs are canceled once the window
// closes, so the capture's wall clock is the profile window plus startup.
//
// CI does not run it; `make profile` is the operator entry point.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/tools/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "profcapture: FAIL:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("profcapture", flag.ContinueOnError)
	bin := fs.String("bin", "bin/fleserve", "path to the fleserve binary under test")
	out := fs.String("out", "bench/e5.cpu.pprof", "output path for the CPU profile")
	seconds := fs.Int("seconds", 10, "CPU profile window in seconds")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	d, err := daemon.Start(ctx, *bin, "-parallel", "2", "-pprof")
	if err != nil {
		return err
	}
	defer d.Stop()
	addr := d.Addr

	client := service.NewClient("http://" + addr)
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// Enough distinct jobs to keep every engine slot busy for well over
	// the profile window; seeds differ so no submission collapses into a
	// cache hit.
	var batch []service.JobRequest
	for i := 0; i < 8; i++ {
		batch = append(batch, service.JobRequest{
			Scenario: "ring/a-lead/fifo",
			N:        64,
			Trials:   1_000_000,
			Seed:     int64(5000 + i),
		})
	}
	states, err := client.Submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit load batch: %w", err)
	}

	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, *seconds)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("capture %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("capture %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	profile, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read profile: %w", err)
	}
	// pprof profiles are gzip-framed protobufs; reject anything else
	// before writing (an HTML error page would otherwise pass silently).
	if len(profile) < 2 || profile[0] != 0x1f || profile[1] != 0x8b {
		return fmt.Errorf("response is not a gzip pprof profile (%d bytes)", len(profile))
	}
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, profile, 0o644); err != nil {
		return err
	}

	// The load batch has served its purpose; cancel what's still queued or
	// running so the daemon shuts down promptly.
	for _, st := range states {
		_ = client.Cancel(ctx, st.ID)
	}
	fmt.Printf("profcapture: wrote %d-second CPU profile (%d bytes) to %s\n", *seconds, len(profile), *out)
	fmt.Printf("profcapture: inspect with: go tool pprof %s\n", *out)
	return nil
}
