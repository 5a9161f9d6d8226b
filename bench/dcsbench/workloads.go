package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"dcsprint/internal/campaign"
	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// The end-to-end metrics every workload reports. An "op" is the unit of
// work a user of that workload waits on: one lockstep step round trip
// (stream), one create → 12 steps → finish session lifetime (churn), one
// seed's whole simulation (campaign).
//
//	setup_s    launch to first useful work, the fastest of several launches
//	op_p01_us  1st-percentile op latency, exact over every op in the window
//
// Each run also prints ops_per_s, op_p50_us, op_p90_us and op_p99_us, which
// are not gated because they do not repeat on a shared host. Other tenants
// slow this machine in two ways. In one, episodes of tens of milliseconds to
// minutes run the simulator about half as fast, so an op's latency has a
// fast mode and a slow mode whose mix changes from run to run and moves the
// median (campaign's spread by 0.28 of its median over alternating 20 s
// runs). In the other, the host takes the virtual CPUs away for milliseconds
// at a time (8–13% steal), which moves the mean and the tail (campaign's
// 90th percentile spread by 0.38, stream's 99th by 0.66). The 1st
// percentile — an op's cost when the host leaves it alone — is untouched by
// the stalls and sits in the fast mode while any of the run is fast: it
// spread by at most 0.15 on every workload in both conditions. Set-up time
// is the fastest launch for the same reason: the median of 15 daemon
// launches moved by 60% between the two halves of a minute on one machine,
// the fastest by 3%.

// addOps records the window's op latencies.
func (r *record) addOps(ops timings, window time.Duration) {
	r.add("op_p01_us", ops.us(0.01), "us")
	r.info("ops_per_s", float64(len(ops))/window.Seconds(), "1/s")
	r.info("op_p50_us", ops.us(0.50), "us")
	r.info("op_p90_us", ops.us(0.90), "us")
	r.info("op_p99_us", ops.us(0.99), "us")
	r.Samples = len(ops)
}

// loadKinds maps the daemon workloads to their session shapes.
var loadKinds = map[string]loadKind{"stream": kindStream, "churn": kindChurn}

// daemonOptsFor returns the dcsprintd flags of a load: durable journals
// every tick and checkpoints every 256; churn raises the session cap so its
// hold phase fits.
func daemonOptsFor(kind loadKind, stateDir string) daemonOpts {
	switch kind {
	case kindDurable:
		return daemonOpts{stateDir: stateDir, snapshotEvery: 256}
	case kindChurn:
		return daemonOpts{maxSessions: 4096}
	}
	return daemonOpts{}
}

// launchFastest starts the daemon n times, stopping all but the last, and
// returns the last with the fastest set-up time, in seconds.
func launchFastest(ctx context.Context, bin string, o daemonOpts, n int) (*daemon, float64, error) {
	var setups []float64
	for {
		d, setup, err := launch(ctx, bin, o)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, setup.Seconds())
		if len(setups) == n {
			return d, summarize(setups).min, nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, fmt.Errorf("stopping dcsprintd: %w", err)
		}
	}
}

// stateDir makes a temporary journal directory under the run's output
// directory and returns it with its cleanup.
func stateDir(cfg config) (string, func(), error) {
	dir, err := os.MkdirTemp(cfg.out, "state-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runDaemonWorkload measures stream or churn end to end.
func runDaemonWorkload(ctx context.Context, cfg config, rec *record) error {
	kind := loadKinds[cfg.workload]
	dir, cleanup, err := stateDir(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	d, setup, err := launchFastest(ctx, cfg.daemon, daemonOptsFor(kind, dir), cfg.launches)
	if err != nil {
		return err
	}
	out, err := drive(ctx, loadSpec{kind: kind, base: d.base, seed: cfg.seed, warmup: cfg.warmup, window: cfg.window})
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping dcsprintd: %w", serr)
	}
	if err != nil {
		return err
	}
	ops := out.step
	if kind == kindChurn {
		ops = out.life
	}
	rec.add("setup_s", setup, "s")
	rec.addOps(ops, cfg.window)
	rec.absorb(out)
	rec.Digest = out.digest
	return nil
}

// seedRun is one campaign item's outcome.
type seedRun struct {
	start, end time.Time
	healthy    bool     // no trip, plant alive at the end
	hash       [32]byte // result fingerprint, for the first digestSessions seeds
}

// campaignItem is one seed's pre-generated reference trace.
type campaignItem struct {
	idx int64
	tr  *trace.Series
}

// runSeeds sweeps one seed's simulation per item over workers goroutines
// and reports when the first seed completed.
func runSeeds(ctx context.Context, items []campaignItem, workers int, tr *tracer, parent uint64) ([]seedRun, time.Duration, error) {
	var first atomic.Int64
	start := time.Now()
	runs, _, err := campaign.Sweep(ctx, campaign.Options{Workers: workers}, items,
		func(_ context.Context, it campaignItem) (seedRun, error) {
			t0 := time.Now()
			res, err := sim.Run(sim.Scenario{Trace: it.tr})
			t1 := time.Now()
			first.CompareAndSwap(0, int64(t1.Sub(start)))
			tr.rec(0, parent, fmt.Sprintf("campaign.seed%d", it.idx), "sim.Run", t0, t1)
			if err != nil {
				return seedRun{}, fmt.Errorf("seed item %d: %w", it.idx, err)
			}
			r := seedRun{start: t0, end: t1, healthy: res.TrippedAt < 0 && !res.Dead}
			if it.idx < digestSessions {
				r.hash, err = resultHash(service.NewResultView(res))
			}
			return r, err
		})
	return runs, time.Duration(first.Load()), err
}

// campaignItems generates the reference traces for items from..from+n-1.
func campaignItems(seed, from int64, n int) ([]campaignItem, error) {
	items := make([]campaignItem, n)
	for i := range items {
		idx := from + int64(i)
		tr, err := workload.SyntheticYahoo(seed+idx, refDegree, refBurst)
		if err != nil {
			return nil, err
		}
		items[i] = campaignItem{idx: idx, tr: tr}
	}
	return items, nil
}

// runCampaign measures the offline path: campaign.Sweep with the load's
// worker count over successive chunks of seeds, each a sim.Run of that
// seed's reference trace on the reference plant, until the window closes.
// Each chunk is a campaign launched anew; its set-up time is its sweep's
// start to its first completed seed, and setup_s is the fastest chunk's.
// Chunks are small so that a run holds a hundred or more of them: the first
// seed runs about twice as long inside the host's slow episodes, and the
// fastest of about fifteen 256-seed chunks moved by a sixth between sets.
func runCampaign(ctx context.Context, cfg config, rec *record) error {
	win0 := time.Now().Add(cfg.warmup)
	win1 := win0.Add(cfg.window)
	var (
		lat    timings
		setups []float64
		hashes [][32]byte
		from   int64
	)
	for time.Now().Before(win1) {
		items, err := campaignItems(cfg.seed, from, cfg.campaignChunk)
		if err != nil {
			return err
		}
		runs, first, err := runSeeds(ctx, items, clients, nil, 0)
		if err != nil {
			return err
		}
		setups = append(setups, first.Seconds())
		for i, r := range runs {
			if !r.healthy {
				rec.fail(fmt.Errorf("seed item %d tripped or died", from+int64(i)))
			}
			if from+int64(i) < digestSessions {
				hashes = append(hashes, r.hash)
			}
			if !r.end.Before(win0) && r.end.Before(win1) {
				lat.add(r.end.Sub(r.start))
			}
		}
		from += int64(len(runs))
	}
	rec.add("setup_s", summarize(setups).min, "s")
	rec.addOps(lat, cfg.window)
	rec.Attempted = from
	rec.Digest = digest(hashes)
	return nil
}
