package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcsprint/internal/durability"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// Errors the manager maps to specific HTTP statuses.
var (
	// ErrNotFound reports an unknown or already-finished session.
	ErrNotFound = errors.New("service: session not found")
	// ErrBusy reports a session past its queue-depth allowance or a shard
	// with too many callers waiting — the caller should back off and retry
	// (HTTP 429).
	ErrBusy = errors.New("service: session queue full")
	// ErrAtCapacity reports the manager's session cap is reached (429).
	ErrAtCapacity = errors.New("service: session capacity reached")
	// ErrClosed reports the manager is draining for shutdown.
	ErrClosed = errors.New("service: manager closed")
	// ErrTraceExhausted reports a step past the end of a trace-bound
	// session's demand trace.
	ErrTraceExhausted = errors.New("service: trace exhausted; finish the session")
	// ErrStepSeq reports a step whose sequence number is neither the next
	// tick nor the just-applied one — the client skipped or rewound, and
	// applying the demand would desynchronize the replicated tick order.
	ErrStepSeq = errors.New("service: step sequence out of order")
)

// DurabilityOptions groups the crash-durability knobs.
type DurabilityOptions struct {
	// StateDir enables crash durability: each session keeps a write-ahead
	// journal (snapshot + applied-tick log) under this directory, and
	// Recover rebuilds the population from it after an unclean death.
	// Empty disables journaling entirely — the in-memory hot path is
	// untouched.
	StateDir string
	// SnapshotEvery is how many journaled steps accumulate before the
	// session checkpoints and truncates the tick log. Zero means 256.
	// Ignored without StateDir.
	SnapshotEvery int
}

// PlantOptions groups the plant-observability knobs.
type PlantOptions struct {
	// Sink receives per-tick engine plant samples: every session's engine
	// gets a recorder at install, and a sampler goroutine folds the latest
	// sample of each live session into fleet-level series on the Every
	// cadence. Nil disables plant observability entirely — engines run with
	// no recorder attached and the step hot path stays allocation-free.
	Sink *tsdb.PlantSink
	// Watchdog evaluates its SLO burn-rate rules right after each fleet
	// fold, at the fold's timestamp. Ignored without Sink.
	Watchdog *tsdb.Watchdog
	// Every is the fleet sampling cadence. Zero means 1 second.
	Every time.Duration
}

// Config sizes a Manager. Zero values take defaults.
type Config struct {
	// MaxSessions caps concurrently live sessions. Zero means 256.
	MaxSessions int
	// IdleTTL evicts sessions with no activity for this long. Zero means
	// 10 minutes; negative disables eviction.
	IdleTTL time.Duration
	// QueueDepth bounds how many of one session's requests may wait for it
	// at once. Zero means 64.
	QueueDepth int
	// Registry receives the service metrics. Nil creates a private one.
	Registry *telemetry.Registry
	// Ops receives server-side wall-clock spans (admission, queue wait,
	// step, snapshot, eviction, drain) tagged with wire trace context. Nil
	// disables span recording entirely — the step hot path then does no
	// extra clock reads.
	Ops *telemetry.OpLog
	// Flight receives control-plane incidents (429s, capacity rejections,
	// idle evictions, restore failures, slow steps) into its per-shard
	// rings. Nil disables the flight recorder.
	Flight *telemetry.FlightRecorder
	// SlowStep is the step-service latency above which a slow-step flight
	// event is recorded. Zero means 25ms; it is ignored without Flight.
	SlowStep time.Duration
	// Durability groups the write-ahead-journal knobs.
	Durability DurabilityOptions
	// Plant groups the plant-observability knobs.
	Plant PlantOptions
}

// WithDurability returns a copy of c with the journaling knobs set — the
// chainable constructor daemon flag plumbing uses instead of naming nested
// struct fields.
func (c Config) WithDurability(stateDir string, snapshotEvery int) Config {
	c.Durability = DurabilityOptions{StateDir: stateDir, SnapshotEvery: snapshotEvery}
	return c
}

// WithPlant returns a copy of c with the plant-observability knobs set.
func (c Config) WithPlant(sink *tsdb.PlantSink, watchdog *tsdb.Watchdog, every time.Duration) Config {
	c.Plant = PlantOptions{Sink: sink, Watchdog: watchdog, Every: every}
	return c
}

func (c *Config) fill() {
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.SlowStep == 0 {
		c.SlowStep = 25 * time.Millisecond
	}
	if c.Durability.SnapshotEvery <= 0 {
		c.Durability.SnapshotEvery = 256
	}
	if c.Plant.Every <= 0 {
		c.Plant.Every = time.Second
	}
}

// nShards fixes the shard count: one id map and one waiting-caller bound per
// shard. 16 keeps map contention negligible at hundreds of thousands of
// sessions.
const nShards = 16

// NumShards exposes the shard count so callers can size a
// telemetry.FlightRecorder to match: one event ring per shard keeps the
// recorder's locking as fine-grained as the map it observes.
const NumShards = nShards

// shard is one of the manager's session lanes: an id map shared with
// lookups, and the count of callers admitted to its sessions that are still
// waiting for a session lock.
type shard struct {
	mu sync.Mutex
	m  map[string]*session

	waiting atomic.Int32
}

// live appends the shard's sessions to buf.
func (sh *shard) live(buf []*session) []*session {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, s := range sh.m {
		buf = append(buf, s)
	}
	return buf
}

// Manager hosts the live sessions: a sharded id map, each session served on
// its callers' goroutines under its own lock, a janitor evicting idle
// sessions, and gauges over the whole population. All methods are safe for
// concurrent use.
type Manager struct {
	cfg    Config
	shards [nShards]shard
	// shardDepth bounds each shard's waiting callers, so the per-session
	// QueueDepth gate, not the shared bound, is the normal backpressure
	// signal.
	shardDepth int32

	mu     sync.Mutex // guards count and closed
	count  int
	closed bool

	wg        sync.WaitGroup // janitor + plant sampler
	closeOnce sync.Once
	janitorQ  chan struct{}
	plantQ    chan struct{}

	metrics managerMetrics
}

type managerMetrics struct {
	active        *telemetry.Gauge
	created       *telemetry.Counter
	finished      *telemetry.Counter
	evicted       *telemetry.Counter
	rejected      *telemetry.Counter
	backpressure  *telemetry.Counter
	steps         *telemetry.Counter
	slowSteps     *telemetry.Counter
	stepLatency   *telemetry.Histogram
	recovered     *telemetry.Counter
	recoveryFails *telemetry.Counter
	replayedSteps *telemetry.Counter
	journalErrors *telemetry.Counter
}

// stepLatencyBuckets spans 1µs..5s; engine steps land in the tens of
// microseconds, HTTP round trips in the hundreds.
func stepLatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
	}
}

// NewManager starts a manager: its eviction janitor and plant sampler.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:        cfg,
		shardDepth: int32(max(64*cfg.QueueDepth, 4096)),
		janitorQ:   make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*session)
	}
	reg := cfg.Registry
	// Per-shard queue-depth gauges refresh on scrape: the waiting-caller
	// counts are only interesting at observation time.
	for i := 0; i < nShards; i++ {
		reg.GaugeWith("dcsprint_service_queue_depth",
			"Callers waiting for a session lock on the shard",
			telemetry.Labels{"shard": strconv.Itoa(i)})
	}
	reg.OnScrape(func() {
		for i := range m.shards {
			reg.GaugeWith("dcsprint_service_queue_depth",
				"Callers waiting for a session lock on the shard",
				telemetry.Labels{"shard": strconv.Itoa(i)}).Set(float64(m.shards[i].waiting.Load()))
		}
	})
	m.metrics = managerMetrics{
		active:       reg.Gauge("dcsprint_service_sessions_active", "Live sessions"),
		created:      reg.Counter("dcsprint_service_sessions_created_total", "Sessions opened"),
		finished:     reg.Counter("dcsprint_service_sessions_finished_total", "Sessions finished by clients"),
		evicted:      reg.Counter("dcsprint_service_sessions_evicted_total", "Idle sessions evicted"),
		rejected:     reg.Counter("dcsprint_service_sessions_rejected_total", "Session opens rejected at capacity"),
		backpressure: reg.Counter("dcsprint_service_backpressure_total", "Requests rejected by full session queues"),
		steps:        reg.Counter("dcsprint_service_steps_total", "Engine steps served"),
		slowSteps: reg.Counter("dcsprint_service_slow_steps_total",
			"Steps served slower than the slow-step threshold"),
		stepLatency: reg.Histogram("dcsprint_service_step_latency_seconds",
			"Engine step service latency", stepLatencyBuckets()),
		recovered: reg.Counter("dcsprint_service_sessions_recovered_total",
			"Sessions rebuilt from their journals at startup"),
		recoveryFails: reg.Counter("dcsprint_service_recovery_failures_total",
			"Journals that could not be recovered (quarantined or rejected)"),
		replayedSteps: reg.Counter("dcsprint_service_journal_replayed_steps_total",
			"Journaled ticks replayed through recovered engines"),
		journalErrors: reg.Counter("dcsprint_service_journal_errors_total",
			"Journal write failures (session degraded to in-memory)"),
	}
	if cfg.IdleTTL > 0 {
		m.wg.Add(1)
		go m.janitor()
	}
	if cfg.Plant.Sink != nil {
		m.plantQ = make(chan struct{})
		m.wg.Add(1)
		go m.plantLoop()
	}
	return m
}

// PlantProbe is one live session's plant state, read from its engine under
// the session lock rather than from a per-tick recorder callback. A session
// has a probe only once its engine has stepped (Tick() > 0): before that
// there is no completed tick to report, just as a recorder has no sample.
type PlantProbe struct {
	// ID is the session id.
	ID string
	// Dead marks a tripped or overheated facility.
	Dead bool
	// Sample is the engine's Engine.Plant: the sample a recorder attached
	// to the session received for its last completed tick.
	Sample sim.PlantSample
}

// Probes reads every live session's plant state into per-session probes —
// the pull-based fleet ledger feed. Each session is read under its lock, so
// the probe sees consistent engine state; never-stepped and retired sessions
// report nothing.
func (m *Manager) Probes() []PlantProbe {
	var out []PlantProbe
	var live []*session
	for i := range m.shards {
		live = m.shards[i].live(live[:0])
		for _, s := range live {
			s.mu.Lock()
			if eng := s.eng; eng != nil && eng.Tick() > 0 {
				out = append(out, PlantProbe{ID: s.id, Dead: eng.Dead(), Sample: eng.Plant()})
			}
			s.mu.Unlock()
		}
	}
	return out
}

// plantLoop folds the live population into fleet series on the Plant.Every
// cadence, derives the control-plane extras (step throughput, slow-step
// ratio) from counter deltas, and hands the fold's timestamp to the SLO
// watchdog.
func (m *Manager) plantLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.Plant.Every)
	defer t.Stop()
	var lastSteps, lastSlow float64
	last := time.Now()
	for {
		select {
		case <-m.plantQ:
			return
		case now := <-t.C:
			dt := now.Sub(last).Seconds()
			last = now
			steps := m.metrics.steps.Value()
			slow := m.metrics.slowSteps.Value()
			dSteps, dSlow := steps-lastSteps, slow-lastSlow
			lastSteps, lastSlow = steps, slow
			perSec, ratio := 0.0, 0.0
			if dt > 0 {
				perSec = dSteps / dt
			}
			if dSteps > 0 {
				ratio = dSlow / dSteps
			}
			ts := m.cfg.Plant.Sink.SampleFleet(map[string]float64{
				tsdb.SeriesFleetStepsPerSec:   perSec,
				tsdb.SeriesFleetSlowStepRatio: ratio,
			})
			if m.cfg.Plant.Watchdog != nil {
				m.cfg.Plant.Watchdog.Evaluate(ts)
			}
		}
	}
}

// Registry returns the registry holding the service metrics.
func (m *Manager) Registry() *telemetry.Registry { return m.cfg.Registry }

func (m *Manager) shardIdx(id string) int {
	var h uint32
	for i := 0; i < len(id); i++ {
		h = h*31 + uint32(id[i])
	}
	return int(h % nShards)
}

func (m *Manager) shardOf(id string) *shard {
	return &m.shards[m.shardIdx(id)]
}

// flight records a control-plane incident for the session id (which may be
// empty for pre-admission failures) when the flight recorder is enabled.
func (m *Manager) flight(kind, id string, tc TraceContext, detail string) {
	f := m.cfg.Flight
	if f == nil {
		return
	}
	shard := -1
	if id != "" {
		shard = m.shardIdx(id)
	}
	f.Record(shard, telemetry.FlightEvent{
		Kind: kind, Session: id, Trace: tc.Trace, Req: tc.Req, Detail: detail,
	})
}

// opSpan records one server-side wall-clock span when the op log is enabled.
func (m *Manager) opSpan(name, id string, tc TraceContext, start time.Time, detail string) {
	ops := m.cfg.Ops
	if ops == nil {
		return
	}
	ops.Record(telemetry.OpSpan{
		Trace:   tc.Trace,
		Req:     tc.Req,
		Name:    name,
		Side:    telemetry.SideServer,
		Session: id,
		StartUs: start.UnixMicro(),
		DurUs:   time.Since(start).Microseconds(),
		Detail:  detail,
	})
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// reserve claims a session slot, or reports why it cannot.
func (m *Manager) reserve() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.count >= m.cfg.MaxSessions {
		m.metrics.rejected.Inc()
		return ErrAtCapacity
	}
	m.count++
	return nil
}

func (m *Manager) release() {
	m.mu.Lock()
	m.count--
	m.mu.Unlock()
}

// installOpts carries the optional pieces of a session install: recovery
// reuses the journaled id and seeds the idempotency cache.
type installOpts struct {
	id       string // empty generates a fresh id
	lastDec  Decision
	haveLast bool
}

// install registers a freshly built engine as a live session, or reports
// ErrClosed when Close has begun. With durability on, the session's journal
// is written only once the session is in the map, so a Recover that lists
// the journal always finds the session live and leaves it alone.
func (m *Manager) install(spec ScenarioSpec, eng *sim.Engine, opts installOpts, tc TraceContext) (*session, error) {
	id := opts.id
	if id == "" {
		id = newSessionID()
	}
	s := &session{
		id:       id,
		spec:     spec,
		mgr:      m,
		sh:       m.shardOf(id),
		eng:      eng,
		interval: eng.Interval(),
		lastDec:  opts.lastDec,
		haveLast: opts.haveLast,
	}
	if tr := eng.Scenario().Trace; tr != nil {
		s.traceLen = tr.Len()
	}
	s.tick.Store(int64(eng.Tick()))
	s.touch()
	if m.cfg.Plant.Sink != nil {
		eng.AttachPlantRecorder(m.cfg.Plant.Sink.Session(s.id))
	}
	sh := s.sh
	sh.mu.Lock()
	sh.m[s.id] = s
	sh.mu.Unlock()
	m.metrics.created.Inc()
	m.metrics.active.Add(1)
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		// Close may have swept this shard before the session landed in it,
		// so retire it here. No journal has been written for it yet, so a
		// recovered session's journal stays on disk for the next Recover.
		s.close()
		return nil, ErrClosed
	}
	if m.cfg.Durability.StateDir != "" {
		s.mu.Lock()
		if s.closeErr == nil {
			s.jn, s.specJSON, s.base = m.openJournal(s.id, spec, eng, tc)
		}
		s.mu.Unlock()
	}
	return s, nil
}

// openJournal attaches a write-ahead journal to a new session and writes its
// first checkpoint, returning the checkpoint bytes as the session's delta
// base. Journal failures degrade the session to in-memory — a full disk
// should not take the control plane down with it — but are counted and land
// in the flight recorder.
func (m *Manager) openJournal(id string, spec ScenarioSpec, eng *sim.Engine, tc TraceContext) (*durability.Journal, []byte, []byte) {
	specJSON, err := json.Marshal(spec)
	if err == nil {
		var jn *durability.Journal
		jn, err = durability.Open(m.cfg.Durability.StateDir, id)
		if err == nil {
			var snap []byte
			snap, err = eng.Snapshot()
			if err == nil {
				if err = jn.WriteSnapshot(specJSON, snap, uint64(eng.Tick())); err == nil {
					return jn, specJSON, snap
				}
			}
			jn.Remove() //nolint:errcheck // best-effort cleanup of the half-open journal
		}
	}
	m.metrics.journalErrors.Inc()
	m.flight(telemetry.EventJournalFail, id, tc, err.Error())
	return nil, nil, nil
}

// Create opens a session from a scenario spec and returns its id.
func (m *Manager) Create(spec ScenarioSpec) (*Session, error) {
	return m.CreateTraced(spec, TraceContext{})
}

// CreateTraced is Create carrying wire trace context: the admission work is
// recorded as a server span and a capacity rejection as a flight event, both
// tagged with the caller's ids.
func (m *Manager) CreateTraced(spec ScenarioSpec, tc TraceContext) (*Session, error) {
	start := time.Now()
	sc, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if err := m.reserve(); err != nil {
		if errors.Is(err, ErrAtCapacity) {
			m.flight(telemetry.EventCapReject, "", tc, "create")
		}
		return nil, err
	}
	eng, err := sim.New(sc)
	if err != nil {
		m.release()
		return nil, err
	}
	s, err := m.install(spec, eng, installOpts{}, tc)
	if err != nil {
		return nil, err
	}
	m.opSpan("admission", s.id, tc, start, "create")
	return s.public(), nil
}

// Restore opens a session from a snapshot document previously produced by
// Snapshot: the spec rebuilds the plant, the snapshot bytes restore its
// dynamic state.
func (m *Manager) Restore(doc SnapshotDoc) (*Session, error) {
	return m.RestoreTraced(doc, TraceContext{})
}

// RestoreTraced is Restore carrying wire trace context. Any restore failure
// — a spec that no longer builds, a corrupt snapshot, the capacity cap — is
// recorded as a flight event, since restore failures are what soak
// post-mortems go looking for first.
func (m *Manager) RestoreTraced(doc SnapshotDoc, tc TraceContext) (*Session, error) {
	start := time.Now()
	sc, err := doc.Spec.Build()
	if err != nil {
		m.flight(telemetry.EventRestoreFail, "", tc, err.Error())
		return nil, err
	}
	if err := m.reserve(); err != nil {
		if errors.Is(err, ErrAtCapacity) {
			m.flight(telemetry.EventCapReject, "", tc, "restore")
		}
		m.flight(telemetry.EventRestoreFail, "", tc, err.Error())
		return nil, err
	}
	eng, err := sim.Restore(sc, doc.Snapshot)
	if err != nil {
		m.release()
		m.flight(telemetry.EventRestoreFail, "", tc, err.Error())
		return nil, err
	}
	s, err := m.install(doc.Spec, eng, installOpts{}, tc)
	if err != nil {
		m.flight(telemetry.EventRestoreFail, "", tc, err.Error())
		return nil, err
	}
	m.opSpan("admission", s.id, tc, start, "restore")
	return s.public(), nil
}

// Recover rebuilds the session population from the journals under StateDir:
// each snapshot restores its engine, the tick log replays through it, and the
// session comes back under its original id — bit-identical to an
// uninterrupted run, torn tail records already truncated by the journal
// loader. Corrupt journals are quarantined; capacity and shutdown errors
// leave the journal in place for a later attempt. Returns how many sessions
// came back.
func (m *Manager) Recover() (int, error) {
	if m.cfg.Durability.StateDir == "" {
		return 0, nil
	}
	ids, err := durability.List(m.cfg.Durability.StateDir)
	if err != nil {
		return 0, err
	}
	var (
		n    int
		errs []error
	)
	for _, id := range ids {
		if _, err := m.lookup(id); err == nil {
			continue // already live (double Recover, or raced an install)
		}
		if err := m.recoverOne(id); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", id, err))
		} else {
			n++
		}
	}
	return n, errors.Join(errs...)
}

// recoverOne replays a single journal into a live session.
func (m *Manager) recoverOne(id string) error {
	st, err := durability.Load(m.cfg.Durability.StateDir, id)
	if err != nil {
		return m.recoveryDataError(id, err)
	}
	var spec ScenarioSpec
	if err := json.Unmarshal(st.Spec, &spec); err != nil {
		return m.recoveryDataError(id, err)
	}
	sc, err := spec.Build()
	if err != nil {
		return m.recoveryDataError(id, err)
	}
	// Fold the delta chain onto the base to fast-forward past most of the
	// log. The chain is an accelerator, never the source of truth: a frame
	// that will not fold (torn tail already truncated by Load, or a base
	// mismatch after a crash between snapshot rename and chain truncate)
	// stops the fold where it is, the unfoldable remainder is quarantined for
	// diagnosis, and the log replay below covers the difference.
	snap, folded := st.Snapshot, 0
	var foldErr error
	for _, d := range st.Deltas {
		next, err := sim.ApplyDelta(snap, d)
		if err != nil {
			foldErr = err
			break
		}
		snap = next
		folded++
	}
	if foldErr != nil || st.TornDelta {
		msg := "torn delta tail"
		if foldErr != nil {
			msg = foldErr.Error()
		}
		m.flight(telemetry.EventJournalFail, id, TraceContext{},
			fmt.Sprintf("delta chain stopped after %d of %d frames: %s", folded, len(st.Deltas), msg))
		if qerr := durability.QuarantineDeltas(m.cfg.Durability.StateDir, id); qerr != nil {
			return m.recoveryDataError(id, qerr)
		}
	}
	eng, err := sim.Restore(sc, snap)
	if err != nil {
		return m.recoveryDataError(id, err)
	}
	if got := uint64(eng.Tick()); got < st.Tick {
		return m.recoveryDataError(id, fmt.Errorf("snapshot tick %d, checkpoint header says %d", got, st.Tick))
	}
	var (
		lastDec  Decision
		haveLast bool
		replayed int
	)
	for _, rec := range st.Steps {
		tick := eng.Tick()
		if rec.Seq < uint64(tick) {
			continue // already covered by the folded delta chain
		}
		if rec.Seq != uint64(tick) {
			return m.recoveryDataError(id, fmt.Errorf("journal seq %d at engine tick %d", rec.Seq, tick))
		}
		dec, err := eng.Step(rec.Demand)
		if err != nil {
			return m.recoveryDataError(id, fmt.Errorf("replaying tick %d: %w", tick, err))
		}
		lastDec, haveLast = decisionOf(tick, dec), true
		replayed++
		m.metrics.replayedSteps.Inc()
	}
	if err := m.reserve(); err != nil {
		// Capacity or shutdown: the journal is fine, keep it for next time.
		m.metrics.recoveryFails.Inc()
		m.flight(telemetry.EventRestoreFail, id, TraceContext{}, err.Error())
		return err
	}
	// install re-checkpoints at the replayed tick so the next crash replays
	// only new ticks, and so a torn tail already truncated by Load is not
	// re-read.
	if _, err := m.install(spec, eng, installOpts{id: id, lastDec: lastDec, haveLast: haveLast}, TraceContext{}); err != nil {
		m.metrics.recoveryFails.Inc()
		m.flight(telemetry.EventRestoreFail, id, TraceContext{}, err.Error())
		return err
	}
	m.metrics.recovered.Inc()
	m.flight(telemetry.EventRestore, id, TraceContext{},
		fmt.Sprintf("tick %d, %d deltas folded, %d replayed", eng.Tick(), folded, replayed))
	return nil
}

// recoveryDataError quarantines an unrecoverable journal and records why.
func (m *Manager) recoveryDataError(id string, err error) error {
	m.metrics.recoveryFails.Inc()
	m.flight(telemetry.EventRestoreFail, id, TraceContext{}, err.Error())
	if qerr := durability.Quarantine(m.cfg.Durability.StateDir, id); qerr != nil {
		return errors.Join(err, qerr)
	}
	return err
}

// lookup finds a live session.
func (m *Manager) lookup(id string) (*session, error) {
	sh := m.shardOf(id)
	sh.mu.Lock()
	s := sh.m[id]
	sh.mu.Unlock()
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// Step advances a session one tick.
func (m *Manager) Step(id string, demand float64) (Decision, error) {
	return m.StepSeqTraced(id, -1, demand, TraceContext{})
}

// StepSeqTraced is Step carrying wire trace context and an idempotency
// sequence number. The queue wait and engine step are recorded as server
// spans, the step latency gains the request id as an exemplar, and
// backpressure/slow steps land in the flight recorder. seq must equal the
// session's next tick to apply, seq of the just-applied tick returns its
// cached decision without re-stepping (the reconnect-after-lost-ack case),
// and anything else is ErrStepSeq. seq < 0 skips the check — the legacy
// unsequenced protocol.
func (m *Manager) StepSeqTraced(id string, seq int64, demand float64, tc TraceContext) (Decision, error) {
	s, err := m.lookup(id)
	if err != nil {
		return Decision{}, err
	}
	return s.step(seq, demand, tc)
}

// Info summarizes one live session, or ErrNotFound.
func (m *Manager) Info(id string) (SessionInfo, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	return s.info(time.Now().UnixNano()), nil
}

// Snapshot checkpoints a session into a portable document.
func (m *Manager) Snapshot(id string) (SnapshotDoc, error) {
	return m.SnapshotTraced(id, TraceContext{})
}

// SnapshotTraced is Snapshot carrying wire trace context.
func (m *Manager) SnapshotTraced(id string, tc TraceContext) (SnapshotDoc, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SnapshotDoc{}, err
	}
	return s.snapshot(tc)
}

// Finish seals a session, removes it, and returns its Result.
func (m *Manager) Finish(id string) (*sim.Result, error) {
	return m.FinishTraced(id, TraceContext{})
}

// FinishTraced is Finish carrying wire trace context.
func (m *Manager) FinishTraced(id string, tc TraceContext) (*sim.Result, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.finish(tc)
	if err != nil {
		return nil, err
	}
	m.opSpan("finish", id, tc, start, "")
	m.metrics.finished.Inc()
	return res, nil
}

// SessionInfo summarizes one live session for listings.
type SessionInfo struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Tick     int     `json:"tick"`
	TraceLen int     `json:"trace_len,omitempty"` // 0 for streaming sessions
	IdleS    float64 `json:"idle_s"`
}

// List snapshots the live-session population.
func (m *Manager) List() []SessionInfo {
	var all []*session
	for i := range m.shards {
		all = m.shards[i].live(all)
	}
	now := time.Now().UnixNano()
	var out []SessionInfo
	for _, s := range all {
		out = append(out, s.info(now))
	}
	return out
}

// drop removes a session from the map and the population;
// retireAndUnlock calls it once per session.
func (m *Manager) drop(s *session) {
	sh := s.sh
	sh.mu.Lock()
	delete(sh.m, s.id)
	sh.mu.Unlock()
	m.metrics.active.Add(-1)
	m.release()
	if m.cfg.Plant.Sink != nil {
		m.cfg.Plant.Sink.Drop(s.id)
	}
}

// janitor evicts sessions whose last activity is older than the TTL.
func (m *Manager) janitor() {
	defer m.wg.Done()
	tick := m.cfg.IdleTTL / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var live []*session
	for {
		select {
		case <-m.janitorQ:
			return
		case <-t.C:
			cutoff := time.Now().Add(-m.cfg.IdleTTL).UnixNano()
			for i := range m.shards {
				live = m.shards[i].live(live[:0])
				for _, s := range live {
					if s.last.Load() < cutoff {
						m.evict(s, cutoff)
					}
				}
			}
		}
	}
}

// evict retires a session still idle since before cutoff once it holds the
// session lock.
func (m *Manager) evict(s *session, cutoff int64) {
	s.mu.Lock()
	if s.closeErr != nil || s.last.Load() >= cutoff {
		s.mu.Unlock()
		return
	}
	// Eviction forgets the session on purpose; its journal goes too, or the
	// state dir would accrete dead sessions that resurrect on every restart.
	s.dropJournal.Store(true)
	s.retireAndUnlock(ErrClosed)
	m.metrics.evicted.Inc()
	m.flight(telemetry.EventEvict, s.id, TraceContext{}, fmt.Sprintf("idle > %v", m.cfg.IdleTTL))
	m.opSpan("evict", s.id, TraceContext{}, time.Now(), "idle eviction")
}

// Close drains the manager: no new sessions, the janitor and plant sampler
// stop, and every live session is retired with its journal kept. A call in
// flight finishes; callers still waiting for a session get ErrClosed.
// Concurrent and repeated calls return once the first has drained.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		drainStart := time.Now()
		if m.cfg.IdleTTL > 0 {
			close(m.janitorQ)
		}
		if m.cfg.Plant.Sink != nil {
			close(m.plantQ)
		}
		m.wg.Wait()
		var all []*session
		for i := range m.shards {
			all = m.shards[i].live(all)
		}
		for _, s := range all {
			s.close()
		}
		m.opSpan("drain", "", TraceContext{}, drainStart, "manager close")
	})
}
