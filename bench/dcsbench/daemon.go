package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// daemonOpts are the dcsprintd flags a workload runs with; everything else
// keeps dcsprintd's defaults (tsdb 64 MiB with the stock SLO rules, 256
// flight events per shard, no span log).
type daemonOpts struct {
	stateDir      string // -state-dir; empty disables durability
	snapshotEvery int    // -snapshot-every; used with stateDir
	maxSessions   int    // -max-sessions; 0 keeps the default 256
}

func (o daemonOpts) args() []string {
	args := []string{"-listen", "127.0.0.1:0"}
	if o.stateDir != "" {
		args = append(args, "-state-dir", o.stateDir, "-snapshot-every", strconv.Itoa(o.snapshotEvery))
	}
	if o.maxSessions > 0 {
		args = append(args, "-max-sessions", strconv.Itoa(o.maxSessions))
	}
	return args
}

// stack is dcsprintd's serving stack built in-process with the same wiring
// and defaults: the manager, its plant store and watchdog, and the HTTP
// routes. The traced rungs call into it directly; smoke runs serve it over
// httptest in place of the daemon binary.
type stack struct {
	mgr     *service.Manager
	handler http.Handler
}

// newStack builds the stack; ops, when non-nil, receives the manager's
// server-side spans.
func newStack(o daemonOpts, ops *telemetry.OpLog) (*stack, error) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	flight := telemetry.NewFlightRecorder(service.NumShards, 256)
	store := tsdb.New(tsdb.Sized(64 << 20))
	plant := tsdb.NewPlantSink(store, tsdb.SinkOptions{})
	rules, err := tsdb.ParseRules("default")
	if err != nil {
		return nil, err
	}
	watchdog, err := tsdb.NewWatchdog(store, rules, reg, flight)
	if err != nil {
		return nil, err
	}
	mgr := service.NewManager(service.Config{
		MaxSessions: o.maxSessions,
		Registry:    reg,
		Ops:         ops,
		Flight:      flight,
	}.WithDurability(o.stateDir, o.snapshotEvery).WithPlant(plant, watchdog, 0))
	mux := http.NewServeMux()
	mux.Handle("/v1/", mgr.Handler())
	tsdb.NewHandler(store, watchdog).Register(mux)
	mux.Handle("/", telemetry.HandlerWith(telemetry.HandlerOpts{Registry: reg, Flight: flight, Ops: ops}))
	return &stack{mgr: mgr, handler: mux}, nil
}

// daemon is one running control plane: a dcsprintd process, or the stack
// behind an httptest server.
type daemon struct {
	base string
	pid  int // the process whose CPU and memory the daemon uses
	stop func() error
}

// launch starts a daemon — bin, or the in-process stack when bin is empty —
// and returns once /healthz answers 200, with the time from exec (or from
// building the stack) to that answer: the daemon's set-up time.
func launch(ctx context.Context, bin string, o daemonOpts) (*daemon, time.Duration, error) {
	start := time.Now()
	var d *daemon
	var err error
	if bin == "" {
		d, err = launchInProcess(o)
	} else {
		d, err = launchProcess(bin, o)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := waitHealthy(ctx, d.base); err != nil {
		d.stop() //nolint:errcheck // already failing
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// withDaemon launches a daemon, runs fn against it, and stops it.
func withDaemon(ctx context.Context, bin string, o daemonOpts, fn func(*daemon) error) error {
	d, _, err := launch(ctx, bin, o)
	if err != nil {
		return err
	}
	err = fn(d)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping dcsprintd: %w", serr)
	}
	return err
}

func launchInProcess(o daemonOpts) (*daemon, error) {
	st, err := newStack(o, nil)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(st.handler)
	return &daemon{base: srv.URL, pid: os.Getpid(), stop: func() error {
		srv.Close()
		st.mgr.Close()
		return nil
	}}, nil
}

func launchProcess(bin string, o daemonOpts) (*daemon, error) {
	cmd := exec.Command(bin, o.args()...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	// The daemon's output is read to EOF before Wait, which closes the pipe.
	br := bufio.NewReader(out)
	drained := make(chan struct{})
	wait := func() error {
		<-drained
		err := cmd.Wait()
		// dcsprintd serves /healthz before it installs its SIGTERM handler,
		// so a stop right after start can end it by the signal's default
		// action instead of a drain; either way it has stopped.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	}
	// dcsprintd prints "dcsprintd listening on http://ADDR (...)" once bound.
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br) //nolint:errcheck // the daemon's log is not measured
		close(drained)
	}()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		cmd.Process.Kill() //nolint:errcheck
		wait()             //nolint:errcheck
		return nil, fmt.Errorf("dcsprintd did not report its address (read %q: %v)", line, err)
	}
	base, _, _ := strings.Cut(line[i+len(marker):], " ")
	return &daemon{base: base, pid: cmd.Process.Pid, stop: func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			<-done
			return errors.New("dcsprintd did not drain within 15s; killed")
		}
	}}, nil
}

// observer is the bench's own HTTP client for probes outside the load: it
// never shares a connection with the load clients.
var observer = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := observer.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy after 30s (last error: %v)", base, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// get fetches one observer URL and discards the body.
func get(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := observer.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// scrape reads the daemon's /metrics, keyed by name{labels}.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := observer.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Key()] = s.Value
	}
	return out, nil
}

// gcHeap forces a collection in the daemon and returns its live heap bytes.
func gcHeap(ctx context.Context, base string) (float64, error) {
	if err := get(ctx, base+"/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	m, err := scrape(ctx, base)
	if err != nil {
		return 0, err
	}
	v, ok := m["dcsprint_runtime_heap_alloc_bytes"]
	if !ok {
		return 0, errors.New("daemon /metrics lacks dcsprint_runtime_heap_alloc_bytes")
	}
	return v, nil
}

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procHWM returns a process's peak resident set size in MiB (VmHWM).
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
