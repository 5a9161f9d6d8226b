//go:build !race

// The race detector's instrumentation allocates, so allocation counts hold
// only in a build without it.

package sim

import (
	"testing"
	"time"

	"dcsprint/internal/workload"
)

// TestRunReferenceAllocs pins BenchmarkRunReference's allocations per run.
func TestRunReferenceAllocs(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 89
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(Scenario{Trace: tr}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("a reference run allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
