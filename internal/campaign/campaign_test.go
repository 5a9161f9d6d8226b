package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dcsprint/internal/sim"
	"dcsprint/internal/workload"
)

func TestSweepMatchesParallelSemantics(t *testing.T) {
	items := make([]int, 137)
	for i := range items {
		items[i] = i
	}
	got, rep, err := Sweep(context.Background(), Options{}, items, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	want := make([]int, len(items))
	for i, v := range items {
		want[i] = v * v
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d: got %d, want %d (order not preserved)", i, got[i], want[i])
		}
	}
	if rep.Items != len(items) || rep.Workers < 1 {
		t.Fatalf("implausible report: %+v", rep)
	}
}

func TestSweepEmpty(t *testing.T) {
	got, rep, err := Sweep(context.Background(), Options{}, nil, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil || len(got) != 0 || rep.Items != 0 {
		t.Fatalf("empty sweep: got %v, %+v, err %v", got, rep, err)
	}
}

func TestSweepFirstErrorWins(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	boom := errors.New("boom")
	_, _, err := Sweep(context.Background(), Options{Workers: 4}, items, func(_ context.Context, v int) (int, error) {
		if v == 17 || v == 40 {
			return 0, fmt.Errorf("item %d: %w", v, boom)
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error lost: %v", err)
	}
}

func TestSweepCancelOnFirstError(t *testing.T) {
	// One failing item must cancel the context the remaining items see, so
	// a long campaign aborts instead of finishing the grid.
	var canceledSeen atomic.Int64
	items := make([]int, 256)
	for i := range items {
		items[i] = i
	}
	_, _, err := Sweep(context.Background(), Options{Workers: 2}, items, func(ctx context.Context, v int) (int, error) {
		if v == 0 {
			return 0, errors.New("early failure")
		}
		if ctx.Err() != nil {
			canceledSeen.Add(1)
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("sweep swallowed the failure")
	}
	if err.Error() != "early failure" {
		t.Fatalf("root cause lost: %v", err)
	}
}

func TestSweepHonorsCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 1000)
	var ran atomic.Int64
	_, _, err := Sweep(ctx, Options{Workers: 2}, items, func(ctx context.Context, v int) (int, error) {
		switch n := ran.Add(1); {
		case n == 5:
			cancel()
		case n > 5:
			// Hold later items until the cancel lands: a worker preempted
			// between its count and its cancel() call must not let the
			// other worker finish the grid first.
			<-ctx.Done()
		}
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Each of the two workers may finish the item it holds, no more.
	if n := ran.Load(); n > 5+2 {
		t.Fatalf("cancellation did not stop the sweep (%d items ran)", n)
	}
}

func TestSweepDeterministicResults(t *testing.T) {
	// Two runs of the same scenario grid must produce DeepEqual results
	// regardless of worker count — the bit-identical contract campaigns
	// inherit from the deterministic simulator.
	tr, err := workload.SyntheticYahoo(3, 2.5, 5*time.Minute)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	run := func(workers int) []float64 {
		out, _, err := Sweep(context.Background(), Options{Workers: workers}, seeds, func(_ context.Context, seed int64) (float64, error) {
			res, err := sim.Run(sim.Scenario{Name: fmt.Sprintf("s%d", seed), Trace: tr})
			if err != nil {
				return 0, err
			}
			return res.Improvement(), nil
		})
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		return out
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("seed %d: serial %v != parallel %v", seeds[i], serial[i], parallel[i])
		}
	}
}
