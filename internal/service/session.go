package service

import (
	"fmt"
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

type opKind int

const (
	opStep opKind = iota
	opSnapshot
	opFinish
)

type request struct {
	op opKind
	// s is the target session; the shard worker serves many sessions off
	// one run queue, so every request carries its addressee.
	s      *session
	demand float64
	// seq is the client's step sequence number (the tick it expects to
	// apply); -1 means unsequenced legacy protocol.
	seq int64
	tc  TraceContext
	// enq is when the request entered the run queue; stamped only when the
	// manager records op spans, so the untraced hot path skips the clock
	// read.
	enq   time.Time
	reply chan response
}

type response struct {
	dec Decision
	doc SnapshotDoc
	res *sim.Result
	err error
}

// session is one live engine's bookkeeping. The engine itself lives in the
// shard worker's batch: every operation is a request through the shard run
// queue, and all fields below the marker are owned by that worker goroutine,
// so the engine and its journal never need locks.
type session struct {
	id   string
	spec ScenarioSpec
	mgr  *Manager
	sh   *shard

	// eng hands the freshly built engine to the shard worker: install sets
	// it before publishing the session in the shard map, and the worker
	// adopts it into the batch on the session's first dequeued request
	// (publishing via the map and requests via the channel both establish
	// the necessary happens-before edges).
	eng *sim.Engine

	// queued counts this session's requests sitting in the shard run queue;
	// the QueueDepth admission gate that used to be the per-session mailbox
	// capacity.
	queued atomic.Int32

	interval time.Duration
	traceLen int
	tick     atomic.Int64
	last     atomic.Int64 // unix nanos of last activity

	// dropJournal is set (by the janitor, before eviction) when the journal
	// should be removed rather than kept for recovery.
	dropJournal atomic.Bool

	// ---- worker-owned state below ----

	// slot is the session's batch slot; -1 until the worker adopts the
	// engine.
	slot int
	// closed marks a session the worker has retired (finished, evicted, or
	// shut down); closeErr is what later dequeued requests are told.
	closed   bool
	closeErr error
	// inQuantum dedupes sessions while the worker gathers a lockstep
	// quantum; cleared before the quantum replies.
	inQuantum bool

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

func (s *session) progress() (tick, traceLen int) {
	return int(s.tick.Load()), s.traceLen
}

// do submits a request to the shard worker without blocking; a session past
// its queue-depth allowance or a full shard run queue is ErrBusy, which the
// HTTP layer maps to 429.
func (s *session) do(req request) (response, error) {
	if int(s.queued.Add(1)) > s.mgr.cfg.QueueDepth {
		s.queued.Add(-1)
		s.mgr.metrics.backpressure.Inc()
		s.mgr.flight(telemetry.EventBackpressure, s.id, req.tc,
			fmt.Sprintf("session queue full (depth %d)", s.mgr.cfg.QueueDepth))
		return response{}, ErrBusy
	}
	if s.mgr.cfg.Ops != nil {
		req.enq = time.Now()
	}
	req.s = s
	select {
	case s.sh.runq <- req:
	default:
		s.queued.Add(-1)
		s.mgr.metrics.backpressure.Inc()
		s.mgr.flight(telemetry.EventBackpressure, s.id, req.tc,
			fmt.Sprintf("shard run queue full (depth %d)", cap(s.sh.runq)))
		return response{}, ErrBusy
	}
	select {
	case resp := <-req.reply:
		return resp, resp.err
	case <-s.sh.done:
		// The shard worker exited while our request was queued; it may
		// still have answered just before exiting.
		select {
		case resp := <-req.reply:
			return resp, resp.err
		default:
			return response{}, ErrClosed
		}
	}
}

func (s *session) step(seq int64, demand float64, tc TraceContext) (Decision, error) {
	resp, err := s.do(request{op: opStep, seq: seq, demand: demand, tc: tc, reply: make(chan response, 1)})
	return resp.dec, err
}

func (s *session) snapshot(tc TraceContext) (SnapshotDoc, error) {
	resp, err := s.do(request{op: opSnapshot, tc: tc, reply: make(chan response, 1)})
	return resp.doc, err
}

func (s *session) finish() (*sim.Result, error) {
	resp, err := s.do(request{op: opFinish, reply: make(chan response, 1)})
	return resp.res, err
}

// closeJournal detaches the journal: removed when the session is gone for
// good (finished or evicted), closed but kept on disk otherwise. Worker
// goroutine only.
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
// stale prefix. Worker goroutine only.
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
// checkpoint. Worker goroutine only.
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
