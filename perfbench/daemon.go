package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemonArgs is the daemon's argv after the address and data flags:
// its defaults plus the production posture — fsync on every commit,
// adaptive admission control, no CAPTCHA so accounts can be seeded.
// Telemetry and the 10 s request timeout are daemon defaults.
var daemonArgs = []string{"-pepper", fixturePepper, "-captcha=false", "-sync", "-admission"}

// Daemon is one running reputationd process.
type Daemon struct {
	Base string
	Pid  int
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartDaemon execs bin on dataDir and waits for the first /healthz
// 200. It returns the elapsed time from exec to that answer.
func StartDaemon(bin, dataDir, logPath string) (*Daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", addr, "-data", dataDir}, daemonArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, even one that crashed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &Daemon{Base: "http://" + addr, cmd: cmd, log: logf, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	d.Pid = cmd.Process.Pid
	go func() { d.done <- cmd.Wait() }()

	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		select {
		case werr := <-d.done:
			d.done <- werr
			d.Stop()
			return nil, 0, fmt.Errorf("daemon exited during start-up (%v); log in %s", werr, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, 0, errors.New("daemon did not answer /healthz within 60s")
		}
	}
}

// Stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 20 s. It returns once the process has ended.
func (d *Daemon) Stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return fmt.Errorf("daemon exit: %w", err)
		}
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("daemon did not drain within 20s; killed")
	}
}

// metricsClient scrapes /metrics on its own connections, outside the
// counting dialer, so scrapes do not show up as load.
var metricsClient = &http.Client{Timeout: 10 * time.Second}

// Scrape fetches and parses the daemon's /metrics page.
func (d *Daemon) Scrape(ctx context.Context) (Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := metricsClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %s", resp.Status)
	}
	return ParseExposition(resp.Body)
}

// procDir is /proc/<pid> for the daemon.
func (d *Daemon) procDir() string { return "/proc/" + strconv.Itoa(d.Pid) }
