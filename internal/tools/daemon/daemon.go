// Package daemon starts real fleserve processes for the end-to-end smoke
// tools: each on an ephemeral loopback port, with its listen address read
// from the "listening on" line it prints.
package daemon

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"time"
)

// Node is one running fleserve process.
type Node struct {
	// Addr is the host:port the daemon reported listening on.
	Addr string
	cmd  *exec.Cmd
}

// Start launches bin with "-addr 127.0.0.1:0" followed by extra and waits
// for its listening line. The process dies with ctx; Stop ends it sooner.
func Start(ctx context.Context, bin string, extra ...string) (*Node, error) {
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s %v: %w", bin, extra, err)
	}
	n := &Node{cmd: cmd}
	re := regexp.MustCompile(`listening on (\S+)`)
	scan := bufio.NewScanner(out)
	for scan.Scan() {
		if m := re.FindStringSubmatch(scan.Text()); m != nil {
			n.Addr = m[1]
			// Keep draining stdout so the daemon never blocks on a full pipe.
			go func() {
				for scan.Scan() {
				}
			}()
			return n, nil
		}
	}
	n.Stop()
	return nil, fmt.Errorf("%s %v exited without a listening line", bin, extra)
}

// Stop terminates the daemon gracefully: SIGINT, then a kill if it has not
// exited within ten seconds.
func (n *Node) Stop() {
	_ = n.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { _ = n.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = n.cmd.Process.Kill()
		<-done
	}
}

// Kill terminates the daemon abruptly, as a crash would.
func (n *Node) Kill() {
	_ = n.cmd.Process.Kill()
	_ = n.cmd.Wait()
}
