package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// A run may take four times what it takes on the reference host before
	// it counts as hung; it is then retried, at most twice.
	deadlineFactor = 4
	maxRetries     = 2
	// After SIGQUIT the child has this long to print its goroutines.
	dumpGrace = 10 * time.Second
)

// expected is how long one run of sp takes on the reference host (2 cores).
func (sp *spec) expected(seconds float64) time.Duration { return secs(sp.overhead + seconds) }

// supervise does one run of sp in a child process. A child that outlives
// its deadline gets SIGQUIT, its goroutine dump is kept under out, and the
// run is tried again while budget lasts. A torn hot-table promote can
// self-deadlock a writer on two or more cores (ROADMAP item 1); without
// the deadline that would be a silent hang.
func supervise(sp *spec, seed uint64, seconds float64, traced bool, out string, budget time.Duration) (res *result, hung int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", "-workload", sp.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(b2i(traced)), "-out", out}
	start := time.Now()
	for attempt := 0; attempt <= maxRetries; attempt++ {
		deadline := min(deadlineFactor*sp.expected(seconds), budget-time.Since(start))
		if deadline < sp.expected(seconds) {
			break
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Start(); err != nil {
			return nil, hung, err
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			os.Stderr.Write(stderr.Bytes())
			if err != nil {
				return nil, hung, fmt.Errorf("%s: child failed: %w", sp.name, err)
			}
			res, err := lastLineResult(stdout.Bytes())
			return res, hung, err
		case <-time.After(deadline):
		}
		hung++
		cmd.Process.Signal(syscall.SIGQUIT)
		select {
		case <-done:
		case <-time.After(dumpGrace):
			cmd.Process.Kill()
			<-done
		}
		dump := filepath.Join(out, fmt.Sprintf("hang-%s-seed%d-%d.txt", sp.name, seed, attempt))
		if err := writeFile(dump, stderr.Bytes()); err != nil {
			os.Stderr.Write(stderr.Bytes()) // keep the dump somewhere
			dump = err.Error()
		}
		fmt.Fprintf(os.Stderr, "%s: no result after %v, goroutine dump: %s\n", sp.name, deadline, dump)
	}
	return nil, hung, fmt.Errorf("%s: %d hung runs, giving up", sp.name, hung)
}

func lastLineResult(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	res := new(result)
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("child's result: %w", err)
	}
	return res, nil
}
