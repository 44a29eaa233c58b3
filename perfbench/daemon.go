package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// daemon is a cluseqd child process listening on a loopback port. It
// runs as its own process so its RSS, GC and scheduler are its own.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan error
}

// startDaemon launches cluseqd with args plus a loopback listen address
// and waits until the ready path (/readyz, or /healthz for a daemon
// that starts without models) answers 200. The flags are recorded in
// the run's provenance, with paths relative to the checkout.
func (b *bench) startDaemon(ready string, args ...string) (*daemon, error) {
	rel := make([]string, len(args))
	for i, a := range args {
		rel[i] = strings.TrimPrefix(a, b.root+string(filepath.Separator))
	}
	b.daemonFlags = append(b.daemonFlags, rel)
	logPath := filepath.Join(b.work, fmt.Sprintf("cluseqd-%d.log", len(b.daemonFlags)))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(b.daemonBin, append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cluseqd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logPath, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for d.url == "" {
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("cluseqd did not announce its address; log:\n%s", readFile(logPath))
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("cluseqd exited at start (%v); log:\n%s", err, readFile(logPath))
		case <-time.After(2 * time.Millisecond):
		}
		for _, line := range strings.Split(readFile(logPath), "\n") {
			if addr, ok := strings.CutPrefix(line, "cluseqd: listening on "); ok {
				d.url = "http://" + strings.TrimSpace(addr)
			}
		}
	}
	for {
		resp, err := http.Get(d.url + ready)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("cluseqd not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain (SIGINT) and waits for it to exit. A
// daemon that does not exit within 10s is killed; an unclean exit is an
// error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return fmt.Errorf("signal cluseqd: %w", err)
	}
	select {
	case err := <-d.done:
		d.done <- err
		if err != nil {
			return fmt.Errorf("cluseqd exit: %v; log tail:\n%s", err, tail(readFile(d.log), 5))
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("cluseqd did not drain within 10s")
	}
}

// kill ends the daemon without a drain and waits for it; used on error
// paths, and harmless after the process has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	err := <-d.done
	d.done <- err
}

// gauges scrapes the Prometheus exposition and returns the unlabelled
// series whose names start with prefix.
func (d *daemon) gauges(prefix string) (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}
