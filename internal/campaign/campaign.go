// Package campaign runs scenario sweeps at scale: a deterministic sharded
// fan-out over a bounded worker pool with context cancellation and
// cancel-on-first-error, and per-shard progress metrics into the telemetry
// registry. The paper's Oracle search and the Prediction bound table are
// built on it.
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

	"dcsprint/internal/telemetry"
)

// Options configures a campaign. The zero value runs with GOMAXPROCS
// workers, automatic shard sizing and no progress metrics.
type Options struct {
	// Workers bounds the worker pool. Zero or negative means GOMAXPROCS.
	Workers int
	// ShardSize is the number of items one worker claims at a time. Zero
	// picks a size that gives each worker several shards for load balance.
	ShardSize int
	// Registry receives campaign progress metrics (items, errors, active
	// shards). Nil disables them.
	Registry *telemetry.Registry
	// Ops receives one wall-clock span per executed shard (Side "campaign",
	// all sharing one per-sweep trace id), so a sweep drops into the same
	// merged timeline as the service spans. Nil disables span recording.
	Ops *telemetry.OpLog
	// Flight receives shard-done and item-error events into its rings. Nil
	// disables them.
	Flight *telemetry.FlightRecorder
}

// Report summarizes a completed sweep. The dcsprint facade exports it as
// CampaignResult.
type Report struct {
	// Items is the number of grid points the sweep covered.
	Items int
	// Shards is the number of work shards the items were split into.
	Shards int
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
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) shardSize(items, workers int) int {
	if o.ShardSize > 0 {
		return o.ShardSize
	}
	// Aim for ~4 shards per worker so a slow shard cannot strand the pool,
	// while keeping the dispatch overhead far below the per-item work.
	s := items / (4 * workers)
	if s < 1 {
		s = 1
	}
	return s
}

// progress is the per-sweep metric bundle; a nil registry disables it.
type progress struct {
	items  *telemetry.Counter
	errs   *telemetry.Counter
	active *telemetry.Gauge
	sweeps *telemetry.Counter
}

func newProgress(reg *telemetry.Registry) *progress {
	if reg == nil {
		return nil
	}
	return &progress{
		items: reg.Counter("dcsprint_campaign_items_total",
			"Grid points completed by campaign sweeps."),
		errs: reg.Counter("dcsprint_campaign_item_errors_total",
			"Grid points that returned an error."),
		active: reg.Gauge("dcsprint_campaign_shards_active",
			"Work shards currently being executed."),
		sweeps: reg.Counter("dcsprint_campaign_sweeps_total",
			"Campaign sweeps started."),
	}
}

// Sweep runs fn over every item on a bounded worker pool and returns the
// results in item order. On success every item has run exactly once and the
// result slice is index-aligned with items. Dispatch is sharded with bounded
// queue memory, progress metrics are optional, and the sweep honours context
// cancellation and cancels on the first error: the first failure
// cancels the context passed to in-flight items and stops dispatching new
// shards, and the lowest-index error is returned.
func Sweep[T, R any](ctx context.Context, opts Options, items []T, fn func(context.Context, T) (R, error)) ([]R, *Report, error) {
	start := time.Now()
	n := len(items)
	workers := opts.workers(n)
	shard := opts.shardSize(n, workers)
	nShards := 0
	if shard > 0 {
		nShards = (n + shard - 1) / shard
	}
	rep := &Report{Items: n, Shards: nShards, Workers: workers}
	defer func() { rep.Elapsed = time.Since(start) }()
	if n == 0 {
		return []R{}, rep, ctx.Err()
	}
	prog := newProgress(opts.Registry)
	if prog != nil {
		prog.sweeps.Inc()
	}
	// One trace id per sweep: every shard span and flight event it emits
	// shares it, so a whole campaign groups as one track in a merged view.
	var sweepTrace string
	if opts.Ops != nil || opts.Flight != nil {
		sweepTrace = telemetry.NewTraceID()
	}

	out := make([]R, n)
	errs := make([]error, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed atomic.Bool

	// The dispatch queue holds shard ordinals, not items: memory is bounded
	// by the worker count and the unbuffered channel, never by the grid.
	shardCh := make(chan int)
	go func() {
		defer close(shardCh)
		for s := 0; s < nShards; s++ {
			select {
			case shardCh <- s:
			case <-cctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range shardCh {
				if prog != nil {
					prog.active.Add(1)
				}
				var shardStart time.Time
				if opts.Ops != nil {
					shardStart = time.Now()
				}
				lo, hi := s*shard, (s+1)*shard
				if hi > n {
					hi = n
				}
				nerr := 0
				for i := lo; i < hi; i++ {
					if cctx.Err() != nil {
						break
					}
					r, err := fn(cctx, items[i])
					if err != nil {
						errs[i] = err
						failed.Store(true)
						cancel()
						nerr++
						if prog != nil {
							prog.errs.Inc()
						}
						if opts.Flight != nil {
							opts.Flight.Record(s, telemetry.FlightEvent{
								Kind:   telemetry.EventItemError,
								Trace:  sweepTrace,
								Detail: fmt.Sprintf("item %d: %v", i, err),
							})
						}
					} else {
						out[i] = r
					}
					if prog != nil {
						prog.items.Inc()
					}
				}
				if opts.Ops != nil {
					opts.Ops.Record(telemetry.OpSpan{
						Trace:   sweepTrace,
						Req:     fmt.Sprintf("%s.s%d", sweepTrace, s),
						Name:    "shard",
						Side:    telemetry.SideCampaign,
						StartUs: shardStart.UnixMicro(),
						DurUs:   time.Since(shardStart).Microseconds(),
						Detail:  fmt.Sprintf("items [%d,%d)", lo, hi),
					})
				}
				if opts.Flight != nil {
					opts.Flight.Record(s, telemetry.FlightEvent{
						Kind:   telemetry.EventShardDone,
						Trace:  sweepTrace,
						Detail: fmt.Sprintf("items [%d,%d), %d errors", lo, hi, nerr),
					})
				}
				if prog != nil {
					prog.active.Add(-1)
				}
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
