// Command dcsprintd serves the streaming control plane: many concurrent
// simulated data centres behind the NDJSON-over-HTTP session API, with the
// telemetry endpoints (/metrics, /healthz, /debug/events, /debug/ops.jsonl,
// pprof) on the same listener. Unless -tsdb-mem 0, every session's engine
// feeds plant probes into a fixed-memory time-series store with an SLO
// watchdog over the fleet folds, served at /debug/tsdb (JSON range queries),
// /debug/slo (active alerts) and /debug/dash (a self-contained live
// dashboard).
//
// Examples:
//
//	dcsprintd
//	dcsprintd -listen :9090 -max-sessions 512 -idle-ttl 5m
//	dcsprintd -state-dir /var/lib/dcsprint   # journal sessions, recover on restart
//	dcsprintd -span-out server-spans.jsonl   # write server spans on exit
//	dcsprintd -tsdb-mem 128 -slo-rules 'default; hot = max(fleet.worst_breaker_stress, 10s) > 0.8 for 2'
//	dcsprintd -fleet 'dcs=64,replicas=1,hot=0,cap=8'   # geo-fleet mode: route sessions across 64 DCs
//	curl -s localhost:8080/metrics | grep dcsprint_service
//	curl -s localhost:8080/debug/events | jq .   # flight recorder
//	curl -s 'localhost:8080/debug/tsdb?series=fleet.total_draw_watts&from=-300000&step=10000' | jq .
//
// SIGINT/SIGTERM drains: the listener stops accepting, in-flight requests
// finish, and every live session goroutine is stopped before exit. SIGQUIT
// dumps the flight recorder — the last few hundred control-plane incidents
// per shard — to stderr without stopping the daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcsprint/internal/fleet"
	"dcsprint/internal/service"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
	"dcsprint/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcsprintd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcsprintd", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", ":8080", "HTTP listen address (:0 picks a port)")
		maxSessions = fs.Int("max-sessions", 256, "cap on concurrently live sessions")
		idleTTL     = fs.Duration("idle-ttl", 10*time.Minute, "evict sessions idle this long (<=0 disables)")
		queueDepth  = fs.Int("queue-depth", 64, "per-session request queue depth before 429s")
		drain       = fs.Duration("drain", 10*time.Second, "shutdown grace for in-flight requests")
		events      = fs.Int("events", 256, "flight-recorder events retained per shard (<=0 disables)")
		slowStep    = fs.Duration("slow-step", 25*time.Millisecond, "step latency above which a slow-step flight event is recorded")
		spanOut     = fs.String("span-out", "", "write server-side spans as JSONL to this file on shutdown (merge with traces -merge)")
		spanCap     = fs.Int("span-cap", 1<<20, "max server-side spans retained in memory")
		stateDir    = fs.String("state-dir", "", "journal live sessions here and recover them on restart (empty disables durability)")
		snapEvery   = fs.Int("snapshot-every", 256, "ticks between journal checkpoints when -state-dir is set")
		tsdbMem     = fs.Int("tsdb-mem", 64, "plant time-series store memory budget in MiB; 0 disables the store, /debug/dash and the SLO watchdog")
		sloRules    = fs.String("slo-rules", "default", "SLO burn-rate rules over the plant store ('name = agg(series, window) op threshold for N', ';'-separated; 'default' expands to the stock rules; empty disables the watchdog)")
		fleetSpec   = fs.String("fleet", "", "geo-fleet mode: host N heterogeneous DC profiles and route sessions across them ('dcs=64,replicas=1,hot=0,cap=8,seed=1'; empty disables)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.String())
		return nil
	}
	if *idleTTL <= 0 {
		*idleTTL = -1 // Config treats negative as disabled, zero as default
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)

	var flight *telemetry.FlightRecorder
	if *events > 0 {
		flight = telemetry.NewFlightRecorder(service.NumShards, *events)
	}
	var ops *telemetry.OpLog
	if *spanOut != "" {
		ops = telemetry.NewOpLog(*spanCap)
	}

	// The plant observability stack: a fixed-memory time-series store fed
	// by per-session engine probes, fleet-level folds, and the SLO
	// watchdog over them. All nil-gated: -tsdb-mem 0 runs the daemon with
	// bare engines.
	var (
		store    *tsdb.Store
		plant    *tsdb.PlantSink
		watchdog *tsdb.Watchdog
		debugger *tsdb.Handler
	)
	if *tsdbMem > 0 {
		store = tsdb.New(tsdb.Sized(int64(*tsdbMem) << 20))
		plant = tsdb.NewPlantSink(store, tsdb.SinkOptions{})
		if *sloRules != "" {
			rules, err := tsdb.ParseRules(*sloRules)
			if err != nil {
				return err
			}
			if len(rules) > 0 {
				if watchdog, err = tsdb.NewWatchdog(store, rules, reg, flight); err != nil {
					return err
				}
			}
		}
		debugger = tsdb.NewHandler(store, watchdog)
	}

	// Parse the geo-fleet spec before the manager starts, so a bad spec
	// fails before anything runs.
	var fleetCfg fleet.HostConfig
	if *fleetSpec != "" {
		spec, err := fleet.ParseSpec(*fleetSpec)
		if err != nil {
			return err
		}
		fleetCfg = fleet.HostConfig{Spec: spec, Registry: reg, Flight: flight, Store: store}
	}

	mgr := service.NewManager(service.Config{
		MaxSessions: *maxSessions,
		IdleTTL:     *idleTTL,
		QueueDepth:  *queueDepth,
		Registry:    reg,
		Ops:         ops,
		Flight:      flight,
		SlowStep:    *slowStep,
	}.WithDurability(*stateDir, *snapEvery).WithPlant(plant, watchdog, 0))
	// Geo-fleet mode: the host is a client of the manager, routing creates
	// into it and reading its sessions' plant state.
	var host *fleet.Host
	if *fleetSpec != "" {
		var err error
		if host, err = fleet.NewHost(fleetCfg, mgr); err != nil {
			mgr.Close()
			return err
		}
	}
	// stop ends the manager's and the host's background loops; every
	// return from here on calls it exactly once.
	stop := func() {
		mgr.Close()
		if host != nil {
			host.Close()
		}
	}

	// Recover journaled sessions before the listener opens so a resuming
	// client never races the replay: by the time a connection is accepted,
	// every recoverable session is live at its last acked tick. A corrupt
	// journal is quarantined and reported, not fatal — the healthy sessions
	// still come back.
	if *stateDir != "" {
		recovered, err := mgr.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsprintd: recovery: %v\n", err)
		}
		if recovered > 0 || err != nil {
			fmt.Printf("dcsprintd: recovered %d session(s) from %s\n", recovered, *stateDir)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", mgr.Handler())
	if host != nil {
		// More specific patterns win over the manager's /v1/ prefix.
		mux.Handle("/v1/fleet", host.Handler())
		mux.Handle("/v1/fleet/", host.Handler())
	}
	if debugger != nil {
		debugger.Register(mux)
	}
	mux.Handle("/", telemetry.HandlerWith(telemetry.HandlerOpts{
		Registry: reg,
		Flight:   flight,
		Ops:      ops,
	}))
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: the steps stream stays open for a session's life.
	}

	// Install the drain handler before the listener opens: once /healthz
	// answers, a SIGTERM must drain rather than kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		stop()
		return err
	}
	fmt.Printf("dcsprintd listening on http://%s (sessions<=%d, idle-ttl %v)\n",
		ln.Addr(), *maxSessions, *idleTTL)
	if host != nil {
		fmt.Printf("dcsprintd fleet mode: %d DCs behind /v1/fleet (spec %q)\n",
			len(host.Profiles()), *fleetSpec)
	}
	if debugger != nil {
		fmt.Printf("dcsprintd plant dashboard on http://%s/debug/dash (tsdb %d MiB)\n",
			ln.Addr(), *tsdbMem)
	}

	// SIGQUIT dumps the flight recorder and keeps serving — the moral
	// equivalent of the Go runtime's goroutine dump, for the control plane.
	if flight != nil {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer func() {
			// Stop guarantees no further sends on quit, so closing it
			// is safe and ends the dump goroutine.
			signal.Stop(quit)
			close(quit)
		}()
		go func() {
			for range quit {
				flight.WriteText(os.Stderr) //nolint:errcheck
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("dcsprintd: %v, draining\n", s)
	case err := <-errc:
		stop()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	stop()
	if ops != nil {
		if err := writeSpans(*spanOut, ops); err != nil {
			return fmt.Errorf("writing %s: %w", *spanOut, err)
		}
		fmt.Printf("dcsprintd: wrote %d server spans to %s (%d dropped)\n",
			ops.Len(), *spanOut, ops.Dropped())
	}
	return nil
}

func writeSpans(path string, ops *telemetry.OpLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ops.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
