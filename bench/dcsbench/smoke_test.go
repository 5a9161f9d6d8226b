package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

const benchmarkJSON = "../../BENCHMARK.json"

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkDeclaration(t *testing.T) {
	bf, err := loadBenchmark(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, dcsbench runs %v", names, workloads)
	}
	seen := map[string]bool{}
	var setup bool
	for i, m := range append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...) {
		e2e := i < len(bf.EndToEnd)
		switch {
		case !metricName.MatchString(m.Name) || len(m.Name) > 64:
			t.Errorf("metric name %q breaks ^[A-Za-z0-9_.-]+$ (at most 64)", m.Name)
		case seen[m.Name]:
			t.Errorf("metric %s declared twice", m.Name)
		case !unitName.MatchString(m.Unit):
			t.Errorf("metric %s has unit %q", m.Name, m.Unit)
		case m.Better != "higher" && m.Better != "lower":
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		case e2e && (m.Bound <= 0 || m.Bound > 0.25):
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
		setup = setup || e2e && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no end-to-end setup_s in s, lower better")
	}
}

// units maps each declared metric to its unit.
func units(ds []declared) map[string]string {
	out := map[string]string{}
	for _, d := range ds {
		out[d.Name] = d.Unit
	}
	return out
}

func emitted(rec *record) map[string]string {
	out := map[string]string{}
	for name, v := range rec.Metrics {
		out[name] = v.Unit
	}
	return out
}

func diff(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var extra, missing []string
	for n, u := range got {
		if want[n] != u {
			extra = append(extra, n+" "+u)
		}
	}
	for n, u := range want {
		if got[n] != u {
			missing = append(missing, n+" "+u)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra)+len(missing) > 0 {
		t.Errorf("%s: emitted but undeclared %v; declared but not emitted %v", what, extra, missing)
	}
}

// TestSmoke runs every declared workload untraced and one traced ladder
// against the in-process stack with one-second windows, and requires each
// to verify its results and emit exactly the declared metrics with their
// declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf, err := loadBenchmark(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := t.TempDir()
	check := func(cfg config, want map[string]string) {
		rec, err := run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.traced, err)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", cfg.workload, cfg.traced, rec.Correct, rec.Failed, rec.Attempted, rec.errs)
		}
		diff(t, cfg.workload, emitted(rec), want)
		var buf bytes.Buffer
		if err := report(&buf, rec, out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range last {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("last line keys %v", keys)
		}
	}
	for _, w := range bf.Workloads {
		check(newConfig(w.Name, 1, 1, false, "", out, true), units(bf.EndToEnd))
	}
	check(newConfig("stream", 1, 1, true, "", out, true), units(bf.PerLayer))

	f, err := os.Open(filepath.Join(out, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	names := map[string]bool{}
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans.jsonl: %v", err)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"rung.sim", "sim.Engine.Step", "sim.Batch.StepAll", "service.Manager.Step",
		"service.Stream.StepContext", "durability.Journal.Append", "tsdb.SessionRecorder.RecordPlant", "sim.Run"} {
		if !names[n] {
			t.Errorf("spans.jsonl has no %s span", n)
		}
	}
	recs, err := readRecords(filepath.Join(out, "runs.jsonl"))
	if err != nil || len(recs) != len(bf.Workloads)+1 {
		t.Errorf("runs.jsonl: %d records, %v", len(recs), err)
	}
}
