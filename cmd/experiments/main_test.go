package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsprint/internal/telemetry"
)

func TestRunFastSubset(t *testing.T) {
	// The cheap experiments exercise the full printing path.
	if err := run([]string{"-run", "fig2,fig5,fig8,fig11,notes,skew,capping,outage,endurance,chippcm"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMatchesExperimentsOutput pins every printed line of the whole
// harness: `go run ./cmd/experiments` must reproduce experiments_output.txt,
// the file EXPERIMENTS.md's measured numbers are read from, byte for byte.
// A deliberate change regenerates it with
// `go run ./cmd/experiments > experiments_output.txt`.
func TestRunMatchesExperimentsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment")
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(nil)
	os.Stdout = stdout
	w.Close()
	got := <-printed
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from experiments_output.txt at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, experiments_output.txt %d", len(gl), len(wl))
}

func TestRunWritesMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.prom")
	if err := run([]string{"-run", "fig5", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := telemetry.ParsePrometheus(f)
	if err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "dcsprint_sim_runs_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dcsprint_sim_runs_total >= 1 in snapshot: %v", samples)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
