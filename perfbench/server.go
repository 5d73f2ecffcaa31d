package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one ensembled process started from outside, as an operator
// would: the shipped flags plus deployment settings only.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	log    *os.File
	state  string // durable state directory, removed once the server exits
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// freeAddr returns a loopback address with a port that was free a moment
// ago. startServer retries when the server loses the race for it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches bin with -addr plus extra flags, its stdout and
// stderr captured to logPath, and waits for the first 200 from /readyz.
// It returns the process-start-to-ready time.
func startServer(bin, logPath string, extra []string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// If the benchmark dies without stopping it, the server dies too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() {
			_ = cmd.Wait()
			close(s.exited)
		}()
		err = s.waitReady()
		setup := time.Since(start)
		if err == nil {
			return s, setup, nil
		}
		s.stop()
		lastErr = err
	}
	return nil, 0, lastErr
}

// waitReady polls /readyz every 250 µs until it answers 200, the
// process exits, or 30 s pass.
func (s *server) waitReady() error {
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("ensembled exited before it was ready (see %s)", s.log.Name())
		default:
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return errors.New("ensembled not ready after 30s")
}

// pid returns the server's process ID.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to exit (SIGKILL after
// 10 s), closes its log and removes its state directory.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
	if s.state != "" {
		if err := os.RemoveAll(s.state); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
}

// cpuSeconds reads the process's user+system CPU time from
// /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
