package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunRejectsBadSpecsBeforeListening checks a malformed -fleet or
// -slo-rules fails run before it binds: the listen address is unusable, so
// reaching net.Listen would return a listen error instead of the spec's.
func TestRunRejectsBadSpecsBeforeListening(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "dcs"}, "fleet: spec"},
		{[]string{"-fleet", "dcs=4,bogus=1"}, "fleet: spec key"},
		{[]string{"-slo-rules", "no equals sign"}, "tsdb: rule"},
	} {
		err := run(append([]string{"-listen", "bad:addr:port"}, c.args...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
	// The premise: with valid specs the same address fails at listen.
	if err := run([]string{"-listen", "bad:addr:port"}); err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("run with an unusable address = %v, want a listen error", err)
	}
}

// TestRunLeavesNoGoroutines checks run stops every goroutine it started,
// both when the listen fails after the manager and fleet host are built and
// after a drained run with the SIGQUIT flight-recorder dump installed.
func TestRunLeavesNoGoroutines(t *testing.T) {
	// The first run starts os/signal's process-wide dispatch goroutine,
	// which lives as long as the process; take the baseline after it.
	if err := run([]string{"-listen", "bad:addr:port"}); err == nil {
		t.Fatal("run with an unusable address succeeded")
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := run([]string{"-listen", "bad:addr:port", "-fleet", "dcs=4"}); err == nil || !strings.Contains(err.Error(), "listen") {
			t.Fatalf("run with an unusable address = %v, want a listen error", err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("failed-listen runs left %d goroutines, baseline %d:\n%s", n, base, goroutineDump())
	}
	_, drain := daemon(t, "-fleet", "dcs=4")
	if out, err := drain(); err != nil {
		t.Fatalf("run after SIGTERM = %v\n%s", err, out)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("drained run left %d goroutines, baseline %d:\n%s", n, base, goroutineDump())
	}
}

// settledGoroutines waits up to five seconds for the goroutine count to
// fall to want, giving exiting goroutines time to finish, and returns the
// last count.
func settledGoroutines(want int) int {
	http.DefaultClient.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func goroutineDump() string {
	var b strings.Builder
	pprof.Lookup("goroutine").WriteTo(&b, 1) //nolint:errcheck
	return b.String()
}

// daemon runs the command with args on a loopback port until drain is
// called: drain sends SIGTERM to the test process, which run's handler
// turns into a graceful shutdown, and returns run's stdout and error.
func daemon(t *testing.T, args ...string) (base string, drain func() (string, error)) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	errc := make(chan error, 1)
	go func() { errc <- run(append([]string{"-listen", "127.0.0.1:0", "-tsdb-mem", "8"}, args...)) }()

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var out strings.Builder
	deadline := time.After(10 * time.Second)
	for base == "" {
		select {
		case l := <-lines:
			out.WriteString(l + "\n")
			if rest, ok := strings.CutPrefix(l, "dcsprintd listening on "); ok {
				base, _, _ = strings.Cut(rest, " ")
			}
		case err := <-errc:
			os.Stdout = old
			w.Close()
			t.Fatalf("run returned before listening: %v\n%s", err, &out)
		case <-deadline:
			os.Stdout = old
			w.Close()
			t.Fatalf("no listening line within 10s:\n%s", &out)
		}
	}
	return base, func() (string, error) {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var runErr error
		select {
		case runErr = <-errc:
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return within 30s of SIGTERM")
		}
		os.Stdout = old
		w.Close()
		for l := range lines {
			out.WriteString(l + "\n")
		}
		return out.String(), runErr
	}
}

func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestDaemonServesAndDrains starts the daemon, once plain and once in
// fleet mode, checks its routes answer, and drains it with SIGTERM.
func TestDaemonServesAndDrains(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		fleet bool
	}{
		{"plain", nil, false},
		{"fleet", []string{"-fleet", "dcs=4,replicas=1,hot=0,cap=8"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			base, drain := daemon(t, c.args...)
			fleetWant := http.StatusNotFound
			if c.fleet {
				fleetWant = http.StatusOK
			}
			for path, want := range map[string]int{
				"/healthz":     http.StatusOK,
				"/metrics":     http.StatusOK,
				"/v1/sessions": http.StatusOK,
				"/debug/dash":  http.StatusOK,
				"/v1/fleet":    fleetWant,
				"/trace.jsonl": http.StatusNotFound,
			} {
				if got := status(t, base+path); got != want {
					t.Errorf("GET %s = %d, want %d", path, got, want)
				}
			}
			out, err := drain()
			if err != nil {
				t.Fatalf("run after SIGTERM = %v\n%s", err, out)
			}
			if !strings.Contains(out, "draining") {
				t.Fatalf("no drain line on stdout:\n%s", out)
			}
			if c.fleet && !strings.Contains(out, "fleet mode: 4 DCs") {
				t.Fatalf("no fleet-mode line on stdout:\n%s", out)
			}
		})
	}
}
