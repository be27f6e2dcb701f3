package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one swserve or swworker process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	// addr is the listen address parsed from the process's log line.
	addr string

	mu   sync.Mutex
	tail []string // last log lines, for error reports
	done chan struct{}
}

// procs is every process the benchmark has started and not yet stopped,
// so an interrupted run can stop them all.
var procs struct {
	mu  sync.Mutex
	set map[*proc]bool
}

// startProc runs bin with args, its temporary files under tmp, and
// waits until its log prints a line matching ready, whose first group is
// the address it listens on.
func startProc(ctx context.Context, name, bin, tmp string, ready *regexp.Regexp, args ...string) (*proc, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	procs.mu.Lock()
	if procs.set == nil {
		procs.set = map[*proc]bool{}
	}
	procs.set[p] = true
	procs.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := ready.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		// Wait only after the pipe is drained, as os/exec requires.
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(p.done)
	}()

	timer := time.NewTimer(120 * time.Second)
	defer timer.Stop()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before ready: %s", name, p.lastLog())
	case <-timer.C:
		p.stop()
		return nil, fmt.Errorf("%s not ready after 120s: %s", name, p.lastLog())
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

func (p *proc) lastLog() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop sends SIGTERM, escalates to SIGKILL after 10 s, and returns once
// the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	procs.mu.Lock()
	delete(procs.set, p)
	procs.mu.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	procs.mu.Lock()
	all := make([]*proc, 0, len(procs.set))
	for p := range procs.set {
		all = append(all, p)
	}
	procs.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range all {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	buf, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}
