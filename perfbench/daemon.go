package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
)

// daemon is one refereed process with its result cache on.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	stats   *client.Client
	exited  chan struct{} // closed once the process has been waited for
}

// daemonSlots is the daemon's execution-slot count: the 2 cores of the
// target, so two connections never queue for a slot.
const daemonSlots = 2

// startDaemon launches bin on a free loopback port and returns once it
// answers /v1/healthz. Readiness is polled every millisecond: a refused
// connection returns at once, so the poll adds at most that much to
// setup_s, and it needs nothing from the daemon's log format. The
// daemon's request log goes to logPath, a file rather than a pipe, so
// that reading it never competes with the timed traffic.
func startDaemon(ctx context.Context, bin string, cacheBytes int64, logPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-cache-bytes", strconv.FormatInt(cacheBytes, 10),
		"-max-concurrent", strconv.Itoa(daemonSlots),
		"-timeout", "2m",
		"-grace", "2s",
	)
	cmd.Stderr = logFile
	err = cmd.Start()
	logFile.Close() // the daemon holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		defer close(d.exited)
		cmd.Wait()
	}()
	d.stats = client.New(client.Config{BaseURL: d.url, Retries: -1,
		HTTPClient: &http.Client{Transport: &http.Transport{Proxy: nil}}})
	giveUp := time.Now().Add(30 * time.Second)
	for {
		_, err := d.stats.Health(ctx)
		if err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during start-up: %s", d.logTail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(giveUp) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 30s: %v", err)
		}
	}
}

// logTail returns the end of the daemon's log, for error reports.
func (d *daemon) logTail() string {
	f, err := os.Open(d.logPath)
	if err != nil {
		return err.Error()
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > 4096 {
		f.Seek(st.Size()-4096, io.SeekStart)
	}
	tail, _ := io.ReadAll(f)
	return string(tail)
}

// cacheCounters reads the daemon's cumulative result-cache counters.
func (d *daemon) cacheCounters(ctx context.Context) (client.CacheStats, error) {
	s, err := d.stats.Stats(ctx)
	if err != nil {
		return client.CacheStats{}, fmt.Errorf("daemon stats: %w", err)
	}
	return s.Cache, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the daemon to drain and exit, kills it if it lingers, and
// waits until the process has ended. Safe to call more than once.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}
