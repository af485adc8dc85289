// Package daemon starts and stops local scanpowerd processes for the
// smoke drivers under scripts/: a node listens on a loopback port picked
// ahead of time, so a cluster's -self/-peers URLs are known before any
// daemon boots.
package daemon

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Node is one scanpowerd process.
type Node struct {
	// Bin is the scanpowerd binary and Port its loopback listen port.
	Bin  string
	Port int
	// Name, when set, is passed as -node.
	Name string
	// Self and Peers, when Peers is set, run the node in cluster mode.
	Self  string
	Peers string
	// StoreDir, when set, is the node's -store-dir.
	StoreDir string
	// LogPath receives the daemon's stdout and stderr, appended across
	// restarts.
	LogPath string
	// Cmd is the running process, nil before Start and after a drain.
	Cmd *exec.Cmd
}

// URL is the node's base URL.
func (n *Node) URL() string { return fmt.Sprintf("http://127.0.0.1:%d", n.Port) }

// Start boots the daemon (one worker, a 64-job queue) and waits for
// /v1/healthz to answer 200.
func (n *Node) Start() error {
	args := []string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", n.Port),
		"-workers", "1", "-queue", "64",
	}
	if n.Name != "" {
		args = append(args, "-node", n.Name)
	}
	if n.StoreDir != "" {
		args = append(args, "-store-dir", n.StoreDir)
	}
	if n.Peers != "" {
		args = append(args, "-self", n.Self, "-peers", n.Peers)
	}
	logf, err := os.OpenFile(n.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(n.Bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	err = cmd.Start()
	logf.Close() // the child holds its own copy of the fd
	if err != nil {
		return fmt.Errorf("start node on :%d: %w", n.Port, err)
	}
	n.Cmd = cmd

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.URL() + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	return fmt.Errorf("node on :%d never became healthy (log %s)", n.Port, n.LogPath)
}

// StopGraceful SIGTERMs the daemon and requires a clean exit.
func (n *Node) StopGraceful() error {
	if err := n.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- n.Cmd.Wait() }()
	select {
	case err := <-done:
		n.Cmd = nil
		if err != nil {
			return fmt.Errorf("exited uncleanly: %v", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		n.Cmd.Process.Kill()
		return fmt.Errorf("did not drain within 60s of SIGTERM")
	}
}

// Kill SIGKILLs the daemon, if it runs, and reaps it.
func (n *Node) Kill() {
	if n.Cmd != nil && n.Cmd.Process != nil {
		n.Cmd.Process.Kill()
		n.Cmd.Wait()
	}
}

// PickPort reserves a free loopback TCP port by binding and releasing it.
func PickPort() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// Cluster boots a cluster of len(names) nodes, each with its own store
// and log under dir; names[i], when not empty, is node i's -node name. On
// an error it kills the nodes it started.
func Cluster(bin, dir string, names []string) ([]*Node, error) {
	nodes := make([]*Node, len(names))
	selfs := make([]string, len(names))
	for i := range nodes {
		nodes[i] = &Node{Bin: bin, Port: PickPort(), Name: names[i],
			StoreDir: filepath.Join(dir, fmt.Sprintf("store%d", i)),
			LogPath:  filepath.Join(dir, fmt.Sprintf("node%d.log", i))}
		selfs[i] = nodes[i].URL()
	}
	for i, n := range nodes {
		n.Self, n.Peers = selfs[i], strings.Join(selfs, ",")
		if err := n.Start(); err != nil {
			for _, started := range nodes[:i] {
				started.Kill()
			}
			return nil, err
		}
	}
	return nodes, nil
}
