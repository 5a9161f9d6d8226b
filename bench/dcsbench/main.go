// Command dcsbench benchmarks dcsprint on one reference scenario, end to end
// and layer by layer.
//
// Every workload runs the same reference plant — the default sim.Scenario:
// 2000 servers, 200 per PDU, greedy, TES on — behind the same reference
// session, an unbounded streaming session. Session (or campaign item) i of a
// run with seed s is fed the 1800 samples of
// workload.SyntheticYahoo(s+i, 3.2, 15m): 5 min idle, a 15 min burst, then 10
// min of recovery. The daemon receives only the demand values.
//
// Usage, from the repository root (bench/run.sh builds dcsbench and
// dcsprintd, then runs dcsbench with its arguments):
//
//	bash bench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload stream --seed 1 --seconds 10 --trace 1
//	dcsbench compare parent.jsonl change.jsonl
//	dcsbench summary runs.jsonl
//
// An untraced run measures one workload's end-to-end metrics against the
// dcsprintd binary named by -daemon (or, without it, the same serving stack
// in-process). A traced run replays the same seeded inputs through each
// layer's public entry points and reports the per-layer ladder, writing a
// span around every call to spans.jsonl. Both print one
// "workload metric value unit" line per metric, append a JSON record to
// runs.jsonl, verify every result, and end with one JSON object holding
// correct, attempted, failed and metrics. A run whose results fail
// verification still prints them, then exits 1.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "summary":
		err = summaryMain(args[1:], os.Stdout)
	default:
		err = runMain(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsbench:", err)
		os.Exit(1)
	}
}

// workloads names the benchmark's workloads in the order they are reported.
// The durable load — stream's sessions on a daemon that journals every tick —
// is not one of them: its op_p01_us read within 1% of stream's, as a
// journal append costs about 1 µs of a 40 µs step, so the traced run's
// durability and dcsprintd rungs measure the journal instead.
var workloads = []string{"stream", "churn", "campaign"}

// config is one run's settings and the amount of work each phase does.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the timed window of an untraced run
	traced   bool
	daemon   string // dcsprintd binary; empty serves the stack in-process
	out      string

	warmup        time.Duration // untimed load before each window
	launches      int           // daemon starts behind setup_s
	rung          time.Duration // window of each traced load rung
	hold          int           // sessions held open for bytes per live session
	simSessions   int           // reference sessions the traced sim, durability and tsdb rungs replay
	batchSessions int           // sessions in the traced Batch.StepAll rung
	reps          int           // repetitions of each single-call timing
	campaignChunk int           // seeds per campaign Sweep
	campaignSeeds int           // seeds in the traced campaign rung
}

func newConfig(workload string, seed int64, seconds int, traced bool, daemon, out string, smoke bool) config {
	c := config{
		workload: workload, seed: seed, window: time.Duration(seconds) * time.Second,
		traced: traced, daemon: daemon, out: out,
		warmup: 2 * time.Second, launches: 30, hold: 2000,
		simSessions: 8, batchSessions: 256, reps: 20, campaignChunk: 32, campaignSeeds: 200,
	}
	c.rung = max(c.window/8, time.Second)
	if smoke {
		c.warmup, c.launches, c.hold, c.rung = 200*time.Millisecond, 1, 50, 500*time.Millisecond
		c.simSessions, c.batchSessions, c.reps, c.campaignChunk, c.campaignSeeds = 1, 8, 3, 20, 20
	}
	return c
}

func runMain(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("dcsbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "workload seed; session or campaign item i uses seed+i")
	seconds := fl.Int("seconds", 30, "timed window of an untraced run, in seconds (each load rung of a traced run takes an eighth)")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end workload")
	daemon := fl.String("daemon", "", "dcsprintd binary to benchmark; empty serves the same stack in-process")
	out := fl.String("out", filepath.Join(".bench_build", "dcsbench"), "directory for runs.jsonl, spans.jsonl and temporary state")
	smoke := fl.Bool("smoke", false, "structural check: short warm-up, windows and sizes")
	if err := fl.Parse(args); err != nil {
		return err
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		return fmt.Errorf("-workload %q: want one of %s", *workload, strings.Join(workloads, ", "))
	case *seconds < 1:
		return errors.New("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return errors.New("-trace must be 0 or 1")
	}
	cfg := newConfig(*workload, *seed, *seconds, *trace == 1, *daemon, *out, *smoke)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rec, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	if err := report(stdout, rec, cfg.out); err != nil {
		return err
	}
	if !rec.Correct {
		return errors.New("results failed verification")
	}
	return nil
}

// value is one metric reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's outcome: what the last stdout line reports, plus the
// context compare and summary need.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Env       env              `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Digest    string           `json:"results_digest,omitempty"`
	Samples   int              `json:"samples,omitempty"` // timings behind the op latencies
	Metrics   map[string]value `json:"metrics"`
	Info      map[string]value `json:"info,omitempty"` // readings printed but not gated

	order, infoOrder []string
	notes            []string
	errs             []error
}

func (r *record) add(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *record) info(name string, v float64, unit string) {
	if r.Info == nil {
		r.Info = map[string]value{}
	}
	if _, dup := r.Info[name]; !dup {
		r.infoOrder = append(r.infoOrder, name)
	}
	r.Info[name] = value{Value: v, Unit: unit}
}

// absorb counts a load's operations and failures into the run.
func (r *record) absorb(o *loadOut) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// fail counts one failed operation, keeping the first few errors.
func (r *record) fail(err error) {
	r.Failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err)
	}
}

// run performs one run and verifies its outputs.
func run(ctx context.Context, cfg config) (*record, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rec := &record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		Env: readEnv(), Metrics: map[string]value{}}
	var err error
	switch {
	case cfg.traced:
		rec.Trace = 1
		err = runLadder(ctx, cfg, rec)
	case cfg.workload == "campaign":
		err = runCampaign(ctx, cfg, rec)
	default:
		err = runDaemonWorkload(ctx, cfg, rec)
	}
	if err != nil {
		return nil, err
	}
	for _, name := range rec.order {
		if v := rec.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no samples (%v)", name, v)
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// report prints the run, appends its record to runs.jsonl, and ends with the
// one-line JSON result.
func report(w io.Writer, rec *record, out string) error {
	e := rec.Env
	fmt.Fprintf(w, "# dcsbench workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s source=%s\n",
		rec.Workload, rec.Seed, rec.Trace, e.GOMAXPROCS, e.NProc, e.CPU, e.Go, e.Commit, e.Source)
	for _, name := range rec.order {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	for _, name := range rec.infoOrder {
		v := rec.Info[name]
		fmt.Fprintf(w, "# %s %s %s %s (not gated)\n", rec.Workload, name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	if rec.Digest != "" {
		fmt.Fprintf(w, "# %s results_digest %s (SHA-256 of the first %d results in seed order)\n",
			rec.Workload, rec.Digest, digestSessions)
	}
	fmt.Fprintf(w, "# %s attempted=%d failed=%d samples=%d\n", rec.Workload, rec.Attempted, rec.Failed, rec.Samples)
	for _, n := range rec.notes {
		fmt.Fprintf(w, "# %s %s\n", rec.Workload, n)
	}
	for _, err := range rec.errs {
		fmt.Fprintf(os.Stderr, "dcsbench: %s: %v\n", rec.Workload, err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(out, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// env is the machine and code a run measured.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"` // "none" outside a git checkout
	Source     string `json:"source"` // SHA-256 over the Go sources outside bench/
}

func readEnv() env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git in the working directory, without running
// git.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, outside bench/
// and hidden directories: the code a run measured, with or without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
