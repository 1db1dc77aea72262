package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// env is the state one benchmark run shares between its workload, its gates
// and the per-layer ladder.
type env struct {
	ctx  context.Context
	cfg  config
	bin  string // directory holding the built experiments and rwsimd
	work string // this run's working directory (journals, daemon log, spans)
	tr   *tracer

	// client carries every request of a run: at most two connections, so the
	// two load clients keep one keep-alive connection each.
	client *http.Client

	mu      sync.Mutex
	daemons []*daemon
}

// build compiles the programs under test from the checkout's sources.
func build(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out+string(filepath.Separator),
		"./cmd/experiments", "./cmd/rwsimd")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/experiments ./cmd/rwsimd: %v\n%s", err, stderr.Bytes())
	}
	return nil
}

// childEnv is the environment of a program under test, with GOMAXPROCS
// set explicitly so the provenance record can state it.
func childEnv(procs int) []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
}

// execResult is what one finished run of a program under test cost.
type execResult struct {
	wall  time.Duration
	rssKB int64 // peak resident set, from wait4
}

// runOnce runs bin/name with GOMAXPROCS=procs to completion.
func (e *env) runOnce(stdout io.Writer, procs int, name string, args ...string) (execResult, error) {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, name), args...)
	cmd.Env = childEnv(procs)
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	r := execResult{wall: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("%s %v: %v\n%.2000s", name, args, err, stderr.Bytes())
	}
	r.rssKB = peakRSS(cmd.ProcessState)
	return r, nil
}

// peakRSS returns a finished process's peak resident set in KiB.
func peakRSS(ps *os.ProcessState) int64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return ru.Maxrss // KiB on Linux
}

// daemon is one running rwsimd under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// startDaemon execs rwsimd on a free loopback port with args and returns it
// once GET /healthz answers 200, with the time from exec to that answer.
func (e *env) startDaemon(args ...string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(e.work, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(e.bin, "rwsimd"), append([]string{"-addr", addr}, args...)...)
	cmd.Env = childEnv(runtime.NumCPU())
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rwsimd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()

	poll := &http.Client{Timeout: time.Second}
	for {
		resp, err := poll.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("rwsimd %v exited before /healthz answered: %v (see %s)", args, d.err, logf.Name())
		case <-e.ctx.Done():
			return nil, 0, fmt.Errorf("rwsimd %v: /healthz: %w", args, e.ctx.Err())
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			return nil, 0, fmt.Errorf("rwsimd %v: no /healthz 200 within 30s", args)
		}
	}
}

// stop sends SIGTERM, waits for the drain to finish and returns the peak
// resident set of the daemon's whole life in KiB.
func (d *daemon) stop() (int64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, fmt.Errorf("SIGTERM rwsimd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports the outcome
		<-d.done
		return 0, errors.New("rwsimd did not drain within 60s; killed")
	}
	if d.err != nil {
		return 0, fmt.Errorf("rwsimd exit: %w", d.err)
	}
	return peakRSS(d.cmd.ProcessState), nil
}

// killAll kills every daemon still running and waits for each to end; it
// runs on every exit path of a run.
func (e *env) killAll() {
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	for _, d := range ds {
		select {
		case <-d.done:
		default:
			_ = d.cmd.Process.Kill() // already exiting is fine; we wait either way
			<-d.done
		}
	}
}

// freeAddr returns a loopback address with a port that was free just now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// getJSON decodes GET url into v.
func (e *env) getJSON(url string, v any) error {
	body, err := e.get(url)
	if err != nil {
		return err
	}
	return jsonUnmarshal(body, v, url)
}

// get returns the body of GET url, which must answer 200.
func (e *env) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(e.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
