// Package campaign runs scenario sweeps at scale: a bounded worker pool in
// which each worker claims the next item index, with context cancellation
// and cancel-on-first-error. The paper's Oracle search and the Prediction
// bound table are built on it.
//
// Results are order-preserving and each item's outcome is independent of
// scheduling, so a campaign's batch results are bit-identical to a serial
// loop while the wall clock scales with the core count.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a campaign. The zero value runs with GOMAXPROCS
// workers.
type Options struct {
	// Workers bounds the worker pool. Zero or negative means GOMAXPROCS.
	Workers int
}

// Report summarizes a completed sweep. The dcsprint facade exports it as
// CampaignResult.
type Report struct {
	// Items is the number of grid points the sweep covered.
	Items int
	// Workers is the realized worker-pool size.
	Workers int
	// Elapsed is the sweep wall-clock time.
	Elapsed time.Duration
}

func (o Options) workers(items int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, items))
}

// Sweep runs fn over every item on a bounded worker pool and returns the
// results in item order. On success every item has run exactly once and the
// result slice is index-aligned with items. Each worker claims the next
// unclaimed index from a shared counter. The sweep honours context
// cancellation and cancels on the first error: the first failure cancels
// the context passed to in-flight items and stops further claims, and the
// lowest-index error is returned.
func Sweep[T, R any](ctx context.Context, opts Options, items []T, fn func(context.Context, T) (R, error)) ([]R, *Report, error) {
	start := time.Now()
	n := len(items)
	workers := opts.workers(n)
	rep := &Report{Items: n, Workers: workers}
	defer func() { rep.Elapsed = time.Since(start) }()
	if n == 0 {
		return []R{}, rep, ctx.Err()
	}

	out := make([]R, n)
	errs := make([]error, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r, err := fn(cctx, items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					continue
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		// Prefer the lowest-index root-cause error; items that merely saw
		// the cancellation the first failure triggered report it only when
		// nothing better exists.
		var canceled error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				if canceled == nil {
					canceled = err
				}
				continue
			}
			return nil, rep, err
		}
		if canceled != nil {
			return nil, rep, canceled
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, rep, fmt.Errorf("campaign: sweep canceled: %w", err)
	}
	return out, rep, nil
}
