package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Metrics is one parsed /metrics page: sample value by series, where a
// series is the metric name plus its label set exactly as exposed,
// e.g. `reputation_http_request_seconds_sum{endpoint="lookup"}`.
type Metrics map[string]float64

// ParseExposition reads the Prometheus text format: comment lines are
// skipped, every other line is `series value [timestamp]`.
func ParseExposition(r io.Reader) (Metrics, error) {
	m := make(Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, '}')
		rest := line
		series := ""
		if cut >= 0 {
			series, rest = line[:cut+1], strings.TrimSpace(line[cut+1:])
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("exposition: no value in %q", line)
			}
			series, rest = line[:sp], strings.TrimSpace(line[sp+1:])
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("exposition: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition: value in %q: %w", line, err)
		}
		m[series] = v
	}
	return m, sc.Err()
}

// Delta is after minus before for one series (0 when absent).
func Delta(before, after Metrics, series string) float64 {
	return after[series] - before[series]
}

// ProcSample is the daemon's /proc counters at one instant.
type ProcSample struct {
	CPUTicks   uint64 // utime + stime, in clock ticks
	WriteBytes uint64 // storage-layer bytes written (/proc/<pid>/io)
	VmHWMKB    uint64 // peak resident set
}

// clockTicks is USER_HZ, which Linux fixes at 100 on every
// architecture /proc/<pid>/stat reports in.
const clockTicks = 100

// ReadProc samples /proc/<pid>/{stat,io,status}.
func ReadProc(dir string) (ProcSample, error) {
	var s ProcSample
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rp := strings.LastIndexByte(string(stat), ')')
	if rp < 0 {
		return s, fmt.Errorf("proc stat: malformed")
	}
	f := strings.Fields(string(stat[rp+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("proc stat: %d fields", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("proc stat: utime/stime: %v %v", err1, err2)
	}
	s.CPUTicks = ut + st
	if s.WriteBytes, err = procField(filepath.Join(dir, "io"), "write_bytes:"); err != nil {
		return s, err
	}
	if s.VmHWMKB, err = procField(filepath.Join(dir, "status"), "VmHWM:"); err != nil {
		return s, err
	}
	return s, nil
}

// procField returns the first number after key in a /proc key file.
func procField(path, key string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// HostSteal reads the kernel's count of CPU time the hypervisor took
// from this machine's virtual CPUs (the steal column of /proc/stat),
// in clock ticks summed over all CPUs.
func HostSteal() (uint64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no steal column in %q", line)
	}
	return strconv.ParseUint(f[8], 10, 64)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// CountingDialer wraps a transport's dial hook and counts dials and
// the bytes that cross every connection it made, in both directions.
type CountingDialer struct {
	Next           func(ctx context.Context, network, addr string) (net.Conn, error)
	dials, in, out atomic.Uint64
}

// DialContext implements the http.Transport dial hook.
func (d *CountingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := d.Next(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &countingConn{Conn: c, d: d}, nil
}

// DialerSample is the dialer's counters at one instant.
type DialerSample struct{ Dials, In, Out uint64 }

// Sample reads the counters.
func (d *CountingDialer) Sample() DialerSample {
	return DialerSample{Dials: d.dials.Load(), In: d.in.Load(), Out: d.out.Load()}
}

type countingConn struct {
	net.Conn
	d *CountingDialer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.in.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.d.out.Add(uint64(n))
	return n, err
}
