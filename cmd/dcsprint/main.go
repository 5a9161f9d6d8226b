// Command dcsprint runs one Data Center Sprinting simulation and prints a
// per-phase summary plus, optionally, the full telemetry as CSV, a
// Prometheus metrics snapshot, a JSONL lifecycle trace, or a live HTTP
// endpoint.
//
// Examples:
//
//	dcsprint -trace ms
//	dcsprint -trace yahoo -degree 3.2 -duration 15m -strategy heuristic -estimate 2.4
//	dcsprint -trace ms -strategy uncontrolled
//	dcsprint -trace yahoo -degree 3.0 -duration 10m -csv telemetry.csv
//	dcsprint -trace yahoo -degree 2.5 -duration 12m -faults campaign.spec
//	dcsprint -trace yahoo -listen :0 -metrics out.prom -trace-out run.jsonl
//	dcsprint -trace ms -events -events-format json
//	dcsprint -trace yahoo -snapshot-out run.snap -snapshot-at 5m
//	dcsprint -trace yahoo -resume run.snap
//	dcsprint -trace yahoo -series-out plant.jsonl   # tiered plant time series
//
// A run that ends with the facility down (breaker trip or room overheat)
// prints a one-line FAULT: summary to stderr and exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dcsprint/internal/tsdb"

	"dcsprint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcsprint:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcsprint", flag.ContinueOnError)
	var (
		traceName = fs.String("trace", "ms", "workload trace: ms | yahoo | csv")
		traceCSV  = fs.String("trace-csv", "", "with -trace csv: load the demand trace from this CSV file")
		seed      = fs.Int64("seed", 1, "trace generator seed")
		degree    = fs.Float64("degree", 3.2, "yahoo burst degree")
		duration  = fs.Duration("duration", 15*time.Minute, "yahoo burst duration")
		strategy  = fs.String("strategy", "greedy", "greedy | fixed | prediction | heuristic | adaptive | uncontrolled")
		bound     = fs.Float64("bound", 2.5, "fixed strategy: degree upper bound")
		estimate  = fs.Float64("estimate", 2.4, "heuristic strategy: estimated best average degree")
		headroom  = fs.Float64("headroom", 0.10, "DC-level provisioning headroom (0-0.25)")
		pue       = fs.Float64("pue", 1.53, "facility PUE")
		noTES     = fs.Bool("no-tes", false, "remove the TES tank")
		servers   = fs.Int("servers", 0, "facility size (0 = default)")
		csvPath   = fs.String("csv", "", "write per-second telemetry CSV to this file")
		events    = fs.Bool("events", false, "print the controller's transition log")
		pcm       = fs.Float64("chip-pcm", 0, "chip PCM budget in minutes of full sprint (0 = unlimited)")
		tablePath = fs.String("table", "", "prediction/adaptive: cache the Oracle bound table in this JSON file")
		faultSpec = fs.String("faults", "", "replay a fault-injection campaign from this spec file")
		evFormat  = fs.String("events-format", "text", "with -events: text | json (JSONL span/point records)")
		metrics   = fs.String("metrics", "", "write the Prometheus metrics snapshot to this file after the run")
		traceOut  = fs.String("trace-out", "", "write the lifecycle trace (one JSONL span/point per line) to this file")
		listen    = fs.String("listen", "", "serve /metrics, /healthz and pprof on this address during the run (:0 picks a port)")
		resume    = fs.String("resume", "", "resume from this snapshot file (run with the same scenario flags that produced it)")
		snapOut   = fs.String("snapshot-out", "", "checkpoint the run to this file at -snapshot-at, then keep running")
		snapAt    = fs.Duration("snapshot-at", 0, "with -snapshot-out: trace time of the checkpoint (0 = halfway)")
		seriesOut = fs.String("series-out", "", "write the per-tick plant time series (tiered min/max/sum/count JSONL) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *evFormat != "text" && *evFormat != "json" {
		return fmt.Errorf("unknown -events-format %q (want text or json)", *evFormat)
	}

	var tr *dcsprint.Series
	var trErr error
	switch *traceName {
	case "ms":
		tr, trErr = dcsprint.MSTrace(*seed)
	case "yahoo":
		tr, trErr = dcsprint.YahooTrace(*seed, *degree, *duration)
	case "csv":
		if *traceCSV == "" {
			return fmt.Errorf("-trace csv needs -trace-csv <file>")
		}
		f, err := os.Open(*traceCSV)
		if err != nil {
			return err
		}
		tr, err = dcsprint.ReadTraceCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown trace %q", *traceName)
	}
	if trErr != nil {
		return trErr
	}

	sc := dcsprint.Scenario{
		Name:                 *traceName,
		Trace:                tr,
		DCHeadroom:           *headroom,
		ExplicitZeroHeadroom: *headroom == 0,
		PUE:                  *pue,
		NoTES:                *noTES,
		Servers:              *servers,
		ChipPCMMinutes:       *pcm,
	}
	if *faultSpec != "" {
		sched, err := dcsprint.ParseFaultFile(*faultSpec)
		if err != nil {
			return err
		}
		sc.Faults = sched
	}
	stats := dcsprint.AnalyzeTrace(tr)
	switch *strategy {
	case "greedy":
		sc.Strategy = dcsprint.Greedy()
	case "fixed":
		sc.Strategy = dcsprint.FixedBound(*bound)
	case "prediction":
		tbl, err := loadOrBuildTable(*tablePath, *seed)
		if err != nil {
			return err
		}
		sc.Strategy = dcsprint.Prediction(stats.AggregateDuration, tbl)
	case "heuristic":
		sc.Strategy = dcsprint.Heuristic(*estimate, 0.10)
	case "adaptive":
		tbl, err := loadOrBuildTable(*tablePath, *seed)
		if err != nil {
			return err
		}
		sc.Strategy = dcsprint.Adaptive(tbl)
	case "uncontrolled":
		sc.Uncontrolled = true
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	// A metrics sink gets an instrument, fed from the finished Result.
	var inst *dcsprint.Instrument
	if *metrics != "" || *listen != "" {
		inst = dcsprint.NewInstrument(dcsprint.DefaultMetricRegistry())
	}
	if *listen != "" {
		srv, err := dcsprint.StartTelemetryServer(*listen, inst.Registry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry listening on http://%s/metrics\n", srv.Addr())
	}

	var res *dcsprint.Result
	var err error
	if *resume != "" || *snapOut != "" || *seriesOut != "" {
		res, err = runEngine(sc, *resume, *snapOut, *seriesOut, *snapAt)
	} else {
		res, err = dcsprint.Run(sc)
	}
	if err != nil {
		return err
	}
	if inst != nil {
		inst.Observe(res)
	}
	printSummary(res, stats)
	if *events {
		if err := printEvents(os.Stdout, res, *evFormat); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w io.Writer) error {
			return dcsprint.WriteRunCSV(w, res)
		}); err != nil {
			return err
		}
		fmt.Printf("telemetry written to %s\n", *csvPath)
	}
	if *metrics != "" {
		if err := writeFile(*metrics, inst.Registry().WritePrometheus); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, res.WriteTraceJSONL); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if res.Dead {
		fmt.Fprintln(os.Stderr, "FAULT: "+deadSummary(res))
		return errors.New("facility down")
	}
	return nil
}

// runEngine drives the scenario tick-at-a-time so the run can be restored
// from a snapshot file, checkpointed to one mid-trace, or dump the plant
// time series — in any combination. The Result is bit-for-bit identical to
// the batch path.
func runEngine(sc dcsprint.Scenario, resume, snapOut, seriesOut string, snapAt time.Duration) (*dcsprint.Result, error) {
	var eng *dcsprint.Engine
	var err error
	if resume != "" {
		snap, rerr := os.ReadFile(resume)
		if rerr != nil {
			return nil, rerr
		}
		eng, err = dcsprint.RestoreEngine(sc, snap)
		if err != nil {
			return nil, err
		}
		fmt.Printf("resumed from %s at t=%v (tick %d)\n", resume, eng.Now(), eng.Tick())
	} else {
		eng, err = dcsprint.NewEngine(sc)
		if err != nil {
			return nil, err
		}
	}
	tr := eng.Scenario().Trace
	// Offline runs size the raw ring to the whole trace so nothing ever
	// downsamples away; timestamps are simulation time, not wall clock.
	var store *tsdb.Store
	if seriesOut != "" {
		store = tsdb.New(tsdb.Options{RawCap: tr.Len() + 1})
		eng.AttachPlantRecorder(tsdb.NewOfflineRecorder(store))
	}
	snapTick := -1
	if snapOut != "" {
		if snapAt <= 0 {
			snapAt = tr.Step * time.Duration(tr.Len()) / 2
		}
		snapTick = int(snapAt / tr.Step)
		if snapTick < eng.Tick() || snapTick >= tr.Len() {
			return nil, fmt.Errorf("-snapshot-at %v is outside the remaining trace", snapAt)
		}
	}
	for i := eng.Tick(); i < tr.Len(); i++ {
		if i == snapTick {
			snap, serr := eng.Snapshot()
			if serr != nil {
				return nil, serr
			}
			if werr := os.WriteFile(snapOut, snap, 0o644); werr != nil {
				return nil, werr
			}
			fmt.Printf("snapshot written to %s at t=%v (tick %d)\n", snapOut, eng.Now(), i)
		}
		if _, err := eng.Step(tr.Samples[i]); err != nil {
			return nil, err
		}
	}
	res, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	if seriesOut != "" {
		if err := writeFile(seriesOut, store.WriteJSONL); err != nil {
			return nil, err
		}
		fmt.Printf("plant series written to %s (%d series)\n", seriesOut, len(store.Names()))
	}
	return res, nil
}

// printEvents renders the controller's transition log: the classic text
// form, or the JSONL span/point records of the lifecycle trace built from it.
func printEvents(w io.Writer, res *dcsprint.Result, format string) error {
	if format == "text" {
		fmt.Fprintln(w, "events:")
		for _, e := range res.Events {
			fmt.Fprintln(w, " ", e)
		}
		return nil
	}
	return res.WriteTraceJSONL(w)
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// deadSummary is the one-line cause printed to stderr when a run ends with
// the facility down.
func deadSummary(res *dcsprint.Result) string {
	cause := "room overheated"
	if res.TrippedAt >= 0 {
		cause = fmt.Sprintf("breaker tripped at %v", res.TrippedAt)
	}
	return fmt.Sprintf("%s, facility down (peak room %.1f C, %d fault events applied)",
		cause, res.Telemetry.RoomTemp.Max(), res.FaultsApplied)
}

// loadOrBuildTable returns the Oracle bound table, reading the JSON cache
// when it exists and writing it after a fresh build otherwise. An empty
// path builds without caching.
func loadOrBuildTable(path string, seed int64) (*dcsprint.BoundTable, error) {
	if path != "" {
		if data, err := os.ReadFile(path); err == nil {
			var tbl dcsprint.BoundTable
			if err := json.Unmarshal(data, &tbl); err != nil {
				return nil, fmt.Errorf("bound table cache %s: %w", path, err)
			}
			return &tbl, nil
		}
	}
	tbl, err := dcsprint.StandardBoundTable(seed)
	if err != nil {
		return nil, err
	}
	if path != "" {
		data, err := json.Marshal(tbl)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("bound table cached to %s\n", path)
	}
	return tbl, nil
}

func printSummary(res *dcsprint.Result, stats dcsprint.BurstStats) {
	fmt.Printf("trace: %s (burst %.2fx peak for %v aggregate)\n",
		res.Scenario.Name, stats.PeakDemand, stats.AggregateDuration)
	fmt.Printf("average burst performance: %.3fx over no sprinting\n", res.Improvement())
	fmt.Printf("sprint sustained above capacity: %v\n", res.SprintSustained)
	if res.TrippedAt >= 0 {
		fmt.Printf("BREAKER TRIPPED at %v — facility down\n", res.TrippedAt)
	} else {
		fmt.Println("no breaker trips")
	}
	w := dcsprint.Phases(res)
	describe := func(d time.Duration) string {
		if d < 0 {
			return "never"
		}
		return d.String()
	}
	fmt.Printf("phase 1 (CB overload) start: %s\n", describe(w.Phase1Start))
	fmt.Printf("phase 2 (UPS discharge) start: %s\n", describe(w.Phase2Start))
	fmt.Printf("phase 3 (TES cooling) start: %s\n", describe(w.Phase3Start))
	if total := float64(res.Split.Total()); total > 0 {
		fmt.Printf("additional energy: UPS %.0f%%, TES %.0f%%, CB overload %.0f%%\n",
			100*float64(res.Split.UPS)/total,
			100*float64(res.Split.TES)/total,
			100*float64(res.Split.CBOverload)/total)
	}
	fmt.Printf("peak room temperature: %.1f C\n", res.Telemetry.RoomTemp.Max())
}
