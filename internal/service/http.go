package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"
)

// StepRequest is one NDJSON input line on the steps stream.
type StepRequest struct {
	// Demand is the normalized demand for the next tick.
	Demand float64 `json:"demand"`
	// Seq is the step's sequence number — the tick the client expects this
	// demand to apply to. The server applies it only at that tick, replays
	// the cached decision when the previous tick is re-sent (a reconnect
	// that lost the ack), and rejects anything else with 409, which is what
	// makes reconnects idempotent. Omitted means the legacy unsequenced
	// protocol.
	Seq *int64 `json:"seq,omitempty"`
	// RID is the client-stamped request id for this line; the server echoes
	// it on the matching StepLine and tags its spans, flight events and
	// latency exemplars with it.
	RID string `json:"rid,omitempty"`
}

// StepLine is one NDJSON output line: a Decision on success, otherwise an
// error with the HTTP status it would have carried as its own response.
type StepLine struct {
	*Decision
	// RID echoes the request id of the StepRequest this line answers.
	RID  string `json:"rid,omitempty"`
	Err  string `json:"error,omitempty"`
	Code int    `json:"code,omitempty"`
	// RetryAfterMs is the suggested backoff for retryable error lines —
	// the stream's inline equivalent of the Retry-After header.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// StreamHello is the first NDJSON line of a steps stream: the session's
// identity and the tick the next step will apply to, so a resuming client
// can verify no acked tick was lost and number its steps from the right
// place. It is a separate type from StepLine because the embedded Decision
// already claims the "tick" JSON key.
type StreamHello struct {
	Hello bool   `json:"hello"`
	ID    string `json:"id"`
	Tick  int64  `json:"tick"`
}

// traceFrom extracts the wire trace context from request headers and echoes
// the trace id back so the client can confirm propagation.
func traceFrom(w http.ResponseWriter, r *http.Request) TraceContext {
	tc := TraceContext{
		Trace: r.Header.Get(HeaderTrace),
		Req:   r.Header.Get(HeaderReq),
	}.sanitize()
	if tc.Trace != "" {
		w.Header().Set(HeaderTrace, tc.Trace)
	}
	if tc.Req != "" {
		w.Header().Set(HeaderReq, tc.Req)
	}
	return tc
}

// statusOf maps service errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBusy), errors.Is(err, ErrAtCapacity):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTraceExhausted), errors.Is(err, ErrStepSeq):
		return http.StatusConflict
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errNotFinite):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// retryAfterOf suggests a backoff for retryable rejections: a beat for a
// full session queue, longer when the whole manager is at capacity or draining.
// Zero means the error is not retryable.
func retryAfterOf(err error) time.Duration {
	switch {
	case errors.Is(err, ErrBusy):
		return 5 * time.Millisecond
	case errors.Is(err, ErrAtCapacity):
		return 100 * time.Millisecond
	case errors.Is(err, ErrClosed):
		return 500 * time.Millisecond
	default:
		return 0
	}
}

func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	if ra := retryAfterOf(err); ra > 0 {
		// Decimal seconds; RFC 9110 wants integers but our own client is the
		// consumer and sub-second backoffs matter at step cadence.
		w.Header().Set("Retry-After", strconv.FormatFloat(ra.Seconds(), 'f', -1, 64))
	}
	w.WriteHeader(statusOf(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// maxBodyBytes caps non-streaming request bodies. Inline traces dominate:
// 2^20 samples of ~20 JSON bytes each, plus slack for bound tables.
const maxBodyBytes = 64 << 20

// errTrailingData rejects a request body with more than whitespace after
// its JSON document.
var errTrailingData = errors.New("service: request body has data after its JSON document")

// DecodeBody decodes r's body, one JSON document of at most maxBodyBytes,
// into v. A longer body is a *http.MaxBytesError (413 in statusOf); data
// other than whitespace after the document is errTrailingData (400). The
// fleet host decodes its create body through it too.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errTrailingData
}

// Handler returns the control-plane API:
//
//	POST   /v1/sessions              open a session from a ScenarioSpec
//	GET    /v1/sessions              list live sessions
//	POST   /v1/sessions/restore      open a session from a SnapshotDoc
//	GET    /v1/sessions/{id}         one session's info (tick, idle time)
//	POST   /v1/sessions/{id}/steps   NDJSON hello, then demand in / decisions out
//	GET    /v1/sessions/{id}/snapshot  checkpoint to a SnapshotDoc
//	DELETE /v1/sessions/{id}         finish; returns the ResultView
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", m.handleCreate)
	mux.HandleFunc("GET /v1/sessions", m.handleList)
	mux.HandleFunc("POST /v1/sessions/restore", m.handleRestore)
	mux.HandleFunc("GET /v1/sessions/{id}", m.handleInfo)
	mux.HandleFunc("POST /v1/sessions/{id}/steps", m.handleSteps)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", m.handleSnapshot)
	mux.HandleFunc("DELETE /v1/sessions/{id}", m.handleFinish)
	return mux
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	tc := traceFrom(w, r)
	var spec ScenarioSpec
	if err := DecodeBody(w, r, &spec); err != nil {
		writeError(w, err)
		return
	}
	s, err := m.CreateTraced(spec, tc)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s)
}

func (m *Manager) handleRestore(w http.ResponseWriter, r *http.Request) {
	tc := traceFrom(w, r)
	var doc SnapshotDoc
	if err := DecodeBody(w, r, &doc); err != nil {
		writeError(w, err)
		return
	}
	s, err := m.RestoreTraced(doc, tc)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s)
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := m.List()
	if infos == nil {
		infos = []SessionInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (m *Manager) handleInfo(w http.ResponseWriter, r *http.Request) {
	traceFrom(w, r)
	info, err := m.Info(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (m *Manager) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	doc, err := m.SnapshotTraced(r.PathValue("id"), traceFrom(w, r))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (m *Manager) handleFinish(w http.ResponseWriter, r *http.Request) {
	res, err := m.FinishTraced(r.PathValue("id"), traceFrom(w, r))
	if err != nil {
		writeError(w, err)
		return
	}
	v := NewResultView(res)
	body, err := appendResultView(nil, &v)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck
}

// badLineGrace is how long a steps stream that rejected a line waits for
// the client to finish its request body before dropping the connection.
const badLineGrace = time.Second

// handleSteps is the streaming loop: one StepRequest line in, one StepLine
// out, flushed per line so a client can drive the session in lockstep.
// Recoverable per-tick failures (backpressure, trace exhausted) are reported
// as error lines with their HTTP code and the stream stays open; an unknown
// session ends it, and so does an over-long or malformed input line, after
// one 400 error line saying why.
func (m *Manager) handleSteps(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tc := traceFrom(w, r)
	s, err := m.lookup(id)
	if err != nil {
		// The client keeps its streamed request body open until it sees
		// a response; without Connection: close the server would drain
		// the unread chunked body before committing the error headers and
		// both sides would deadlock.
		w.Header().Set("Connection", "close")
		writeError(w, err)
		return
	}
	rc := http.NewResponseController(w)
	// Full duplex lets us reply to early lines while the client is still
	// writing later ones; without it http/1.1 handlers may not interleave.
	rc.EnableFullDuplex() //nolint:errcheck // best-effort; lockstep still works
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	// The greeting tells a resuming client where the session actually is.
	// Because acks are sent only after the tick is journaled, this tick can
	// never be behind lastAcked+1 — a client seeing otherwise knows state
	// was lost and refuses the resume instead of silently skipping ticks.
	if err := json.NewEncoder(w).Encode(StreamHello{Hello: true, ID: id, Tick: s.tick.Load()}); err != nil {
		return
	}
	if err := rc.Flush(); err != nil {
		return
	}
	// The shard label lets CPU profiles attribute the stream's stepping to
	// the shard its session lives on.
	pprof.Do(r.Context(), pprof.Labels("shard", strconv.Itoa(m.shardIdx(id))),
		func(context.Context) { m.stepLoop(w, r, rc, id, tc) })
}

// stepLoop serves a steps stream's lines after the greeting. The stream's
// encoder and decoder memos live and die with it.
func (m *Manager) stepLoop(w http.ResponseWriter, r *http.Request, rc *http.ResponseController, id string, tc TraceContext) {
	br := newLineReader(r.Body)
	var (
		in  StepRequest
		buf []byte
		enc stepEncoder
		dec stepDecoder
	)
	send := func(l *StepLine) bool {
		var err error
		if buf, err = enc.appendStepLine(buf[:0], l); err != nil {
			return false
		}
		if _, err = w.Write(buf); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	for {
		raw, err := readLine(br)
		if err == nil {
			err = dec.decodeStepRequest(raw, &in)
		} else if !errors.Is(err, errStepLineTooLong) {
			// EOF is the client closing its side; anything else is a
			// broken connection — either way the stream is over.
			return
		}
		if err != nil {
			// An over-long or malformed line: say why, then end the stream.
			// The rest of the body is discarded here rather than by
			// net/http after the handler returns: under full duplex, its
			// post-handler drain reaching the body's end races the
			// connection's next read. A client that does not finish its
			// body within badLineGrace loses the connection instead.
			send(&StepLine{Err: err.Error(), Code: http.StatusBadRequest})
			rc.SetReadDeadline(time.Now().Add(badLineGrace)) //nolint:errcheck // best-effort
			if _, err := io.Copy(io.Discard, br); err != nil {
				panic(http.ErrAbortHandler)
			}
			return
		}
		lineTC := TraceContext{Trace: tc.Trace, Req: sanitizeID(in.RID)}
		seq := int64(-1)
		if in.Seq != nil {
			seq = *in.Seq
		}
		d, err := m.StepSeqTraced(id, seq, in.Demand, lineTC)
		line := StepLine{RID: lineTC.Req}
		if err != nil {
			line.Err = err.Error()
			line.Code = statusOf(err)
			line.RetryAfterMs = retryAfterOf(err).Milliseconds()
		} else {
			line.Decision = &d
		}
		if !send(&line) {
			return
		}
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) {
			return
		}
	}
}
