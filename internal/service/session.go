package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcsprint/internal/durability"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
)

// Session is the public description of a freshly opened session.
type Session struct {
	// ID addresses the session in every other call.
	ID string `json:"id"`
	// StepNs is the session's tick interval.
	StepNs int64 `json:"step_ns"`
	// TraceLen is the demand-trace length, or 0 for an unbounded
	// streaming session.
	TraceLen int `json:"trace_len,omitempty"`
}

// SnapshotDoc is a portable checkpoint: the scenario spec that rebuilds the
// plant plus the engine's dynamic state (base64 in JSON). Restore on any
// dcsprintd instance resumes the session bit-for-bit.
type SnapshotDoc struct {
	Spec     ScenarioSpec `json:"spec"`
	Snapshot []byte       `json:"snapshot"`
}

// session is one live engine's bookkeeping. Every operation on it — step,
// snapshot, finish, probe, eviction, shutdown — runs on its caller's
// goroutine under mu, so the engine and its journal are only ever touched by
// one goroutine at a time.
type session struct {
	id   string
	spec ScenarioSpec
	mgr  *Manager
	sh   *shard

	// queued counts this session's callers that passed admission and are
	// still waiting for mu: the QueueDepth admission gate.
	queued atomic.Int32

	interval time.Duration
	traceLen int
	tick     atomic.Int64
	last     atomic.Int64 // unix nanos of last activity

	// dropJournal is set (by finish and eviction, before retiring) when the
	// journal should be removed rather than kept for recovery.
	dropJournal atomic.Bool

	mu sync.Mutex

	// ---- guarded by mu below ----

	// eng is the session's engine; nil once the session is retired.
	eng *sim.Engine
	// closeErr is what callers reaching a retired session (finished,
	// evicted, or shut down) are told; nil while the session is live.
	closeErr error

	// Durability state. jn == nil means in-memory only.
	jn        *durability.Journal
	specJSON  []byte
	sinceSnap int
	// base holds the bytes of the session's latest checkpoint — the frame
	// the next delta checkpoint is keyed against. Kept in memory (one full
	// snapshot per journaled session) so checkpointing between full rewrites
	// costs only a delta's worth of disk.
	base []byte
	// chain counts delta checkpoints appended since base was last a full
	// rewrite; at deltaChain the next checkpoint is a full base.
	chain    int
	lastDec  Decision // decision of the most recently applied tick
	haveLast bool
}

func (s *session) touch() { s.last.Store(time.Now().UnixNano()) }

func (s *session) public() *Session {
	return &Session{ID: s.id, StepNs: int64(s.interval), TraceLen: s.traceLen}
}

// info summarizes the session for listings, idle time measured to now (unix
// nanos).
func (s *session) info(now int64) SessionInfo {
	return SessionInfo{
		ID:       s.id,
		Name:     s.spec.Name,
		Tick:     int(s.tick.Load()),
		TraceLen: s.traceLen,
		IdleS:    time.Duration(now - s.last.Load()).Seconds(),
	}
}

// busy counts and records one ErrBusy rejection.
func (s *session) busy(tc TraceContext, why string, depth int) error {
	s.mgr.metrics.backpressure.Inc()
	s.mgr.flight(telemetry.EventBackpressure, s.id, tc, fmt.Sprintf("%s (depth %d)", why, depth))
	return ErrBusy
}

// lock admits one caller and takes mu. A session past its queue-depth
// allowance, or a shard with too many callers waiting, is ErrBusy, which the
// HTTP layer maps to 429; a retired session is its closeErr, with mu
// released. On success the caller holds mu and must release it. admitted is
// when the caller passed admission, stamped only when the manager records
// op spans, so the untraced hot path skips the clock read.
func (s *session) lock(tc TraceContext) (admitted time.Time, err error) {
	m := s.mgr
	if int(s.queued.Add(1)) > m.cfg.QueueDepth {
		s.queued.Add(-1)
		return admitted, s.busy(tc, "session queue full", m.cfg.QueueDepth)
	}
	if s.sh.waiting.Add(1) > m.shardDepth {
		s.sh.waiting.Add(-1)
		s.queued.Add(-1)
		return admitted, s.busy(tc, "shard queue full", int(m.shardDepth))
	}
	if m.cfg.Ops != nil {
		admitted = time.Now()
	}
	s.mu.Lock()
	s.sh.waiting.Add(-1)
	s.queued.Add(-1)
	s.touch()
	if s.closeErr != nil {
		s.mu.Unlock()
		return admitted, s.closeErr
	}
	return admitted, nil
}

func (s *session) step(seq int64, demand float64, tc TraceContext) (Decision, error) {
	admitted, err := s.lock(tc)
	if !admitted.IsZero() {
		// The queue-wait span covers admission to lock — the part of a 429
		// storm or a stalled stream that is invisible to the client.
		s.mgr.opSpan("queue-wait", s.id, tc, admitted, "")
	}
	if err != nil {
		return Decision{}, err
	}
	defer s.mu.Unlock()
	m, eng := s.mgr, s.eng
	cur := eng.Tick()
	if seq >= 0 {
		// Idempotent application: the expected seq applies, the just-applied
		// seq gets its cached decision again (a reconnect that lost the ack),
		// anything else desynchronized.
		switch {
		case seq == int64(cur):
		case seq == int64(cur)-1 && s.haveLast:
			return s.lastDec, nil
		default:
			return Decision{}, fmt.Errorf("%w: seq %d, next tick %d", ErrStepSeq, seq, cur)
		}
	}
	if s.traceLen > 0 && cur >= s.traceLen {
		return Decision{}, ErrTraceExhausted
	}
	start := time.Now()
	dec, err := eng.Step(demand)
	if err != nil {
		return Decision{}, err
	}
	// Journal before replying: once the client sees the ack, the tick is
	// recoverable.
	s.journalStep(eng, cur, demand)
	s.tick.Store(int64(eng.Tick()))
	m.metrics.steps.Inc()
	elapsed := time.Since(start)
	if tc.Req != "" {
		m.metrics.stepLatency.ObserveWithExemplar(elapsed.Seconds(), tc.Req)
	} else {
		m.metrics.stepLatency.Observe(elapsed.Seconds())
	}
	if elapsed > m.cfg.SlowStep {
		m.metrics.slowSteps.Inc()
		m.flight(telemetry.EventSlowStep, s.id, tc, fmt.Sprintf("tick %d took %v", cur, elapsed))
	}
	if m.cfg.Ops != nil {
		m.opSpan("step", s.id, tc, start, fmt.Sprintf("tick %d", cur))
	}
	s.lastDec, s.haveLast = decisionOf(cur, dec), true
	return s.lastDec, nil
}

func (s *session) snapshot(tc TraceContext) (SnapshotDoc, error) {
	if _, err := s.lock(tc); err != nil {
		return SnapshotDoc{}, err
	}
	defer s.mu.Unlock()
	start := time.Now()
	snap, err := s.eng.Snapshot()
	if err != nil {
		return SnapshotDoc{}, err
	}
	if s.mgr.cfg.Ops != nil {
		s.mgr.opSpan("snapshot", s.id, tc, start, fmt.Sprintf("%d bytes", len(snap)))
	}
	return SnapshotDoc{Spec: s.spec, Snapshot: snap}, nil
}

func (s *session) finish(tc TraceContext) (*sim.Result, error) {
	if _, err := s.lock(tc); err != nil {
		return nil, err
	}
	res, err := s.eng.Finish()
	// Finished either way — the journal has nothing left to recover.
	s.dropJournal.Store(true)
	s.retireAndUnlock(ErrNotFound)
	return res, err
}

// close retires the session with ErrClosed unless it is already retired.
func (s *session) close() {
	s.mu.Lock()
	if s.closeErr != nil {
		s.mu.Unlock()
		return
	}
	s.retireAndUnlock(ErrClosed)
}

// retireAndUnlock removes a live session from service: engine released,
// journal detached (kept or removed per dropJournal), later callers told
// err. The caller holds mu; it is released before the session leaves the
// map and the plant sink, so the sink's Drop never runs under the session
// lock.
func (s *session) retireAndUnlock(err error) {
	s.eng = nil
	s.closeJournal()
	s.closeErr = err
	s.mu.Unlock()
	s.mgr.drop(s)
}

// closeJournal detaches the journal: removed when the session is gone for
// good (finished or evicted), closed but kept on disk otherwise. Caller
// holds mu.
func (s *session) closeJournal() {
	if s.jn == nil {
		return
	}
	if s.dropJournal.Load() {
		s.jn.Remove() //nolint:errcheck // best-effort; List skips nothing fatal
	} else {
		s.jn.Close() //nolint:errcheck
	}
	s.jn = nil
}

// journalStep appends one applied tick, checkpointing every SnapshotEvery
// appends. A write failure degrades the session to in-memory: counted,
// flight-recorded, journal removed so a later Recover does not resurrect a
// stale prefix. Caller holds mu.
func (s *session) journalStep(eng *sim.Engine, tick int, demand float64) {
	if s.jn == nil {
		return
	}
	err := s.jn.Append(uint64(tick), demand)
	if err == nil {
		s.sinceSnap++
		if s.sinceSnap < s.mgr.cfg.Durability.SnapshotEvery {
			return
		}
		if err = s.checkpoint(eng); err == nil {
			s.sinceSnap = 0
			return
		}
	}
	s.mgr.metrics.journalErrors.Inc()
	s.mgr.flight(telemetry.EventJournalFail, s.id, TraceContext{}, err.Error())
	s.jn.Remove() //nolint:errcheck
	s.jn = nil
}

// deltaChain is how many consecutive checkpoints are written as delta frames
// (a few percent of a full snapshot's bytes) before the session rewrites a
// full base snapshot.
const deltaChain = 16

// checkpoint writes the session's next checkpoint: a delta frame keyed
// against the in-memory base while the chain has room, a full base rewrite
// (which truncates both the tick log and the chain) otherwise. A delta that
// will not encode — the engine picked up fault injection, or the base
// diverged — falls through to a full rewrite rather than failing the
// checkpoint. Caller holds mu.
func (s *session) checkpoint(eng *sim.Engine) error {
	if s.base != nil && s.chain < deltaChain {
		if d, err := eng.DeltaSnapshot(s.base); err == nil {
			if err := s.jn.AppendDelta(d); err != nil {
				return err
			}
			// The next delta is keyed against the state at this tick;
			// ApplyDelta's output is byte-identical to this Snapshot, so the
			// recovery-side fold reproduces the same chain of base CRCs.
			base, err := eng.Snapshot()
			if err != nil {
				return err
			}
			s.base, s.chain = base, s.chain+1
			return nil
		}
	}
	snap, err := eng.Snapshot()
	if err != nil {
		return err
	}
	if err := s.jn.WriteSnapshot(s.specJSON, snap, uint64(eng.Tick())); err != nil {
		return err
	}
	s.base, s.chain = snap, 0
	return nil
}
