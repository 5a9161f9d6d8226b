package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcsprint/internal/telemetry"
)

// RetryPolicy budgets the client's retries: how many attempts an operation
// gets, how the backoff between them grows, and how long any single attempt
// may run. The zero value takes defaults (4 attempts, 2ms base doubling to a
// 250ms cap, 50% jitter, no per-attempt deadline).
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation (first try included).
	// Zero means 4; 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry. Zero means 2ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the grown backoff. Zero means 250ms.
	MaxBackoff time.Duration
	// Multiplier grows the backoff per retry. Zero means 2.
	Multiplier float64
	// Jitter spreads each backoff uniformly over ±Jitter/2 of itself, so a
	// fleet of clients rejected together does not retry together. Zero
	// means 0.5; negative disables jitter.
	Jitter float64
	// OpTimeout bounds one attempt's wall clock. Zero means no per-attempt
	// deadline (the operation context still applies). A timed-out stream
	// attempt tears the stream down — resume with Client.Resume.
	OpTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	return p
}

// backoff computes the delay before retry number `retry` (0-based), growing
// exponentially and never below the server's own Retry-After hint.
func (p RetryPolicy) backoff(retry int, hint time.Duration, jitter func(time.Duration) time.Duration) time.Duration {
	d := time.Duration(float64(p.BaseBackoff) * math.Pow(p.Multiplier, float64(retry)))
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	d = jitter(d)
	if hint > d {
		d = hint
	}
	return d
}

// sleepCtx waits for d or the context, whichever first, without leaking the
// timer on early cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Client talks to a dcsprintd control plane. Every request is stamped with
// the client's trace id and a fresh request id (echoed by the daemon), and
// when Ops is set each round trip is recorded as a client-side span — the
// other half of the merged timeline `traces -merge` builds.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Trace is the trace id stamped on every request. Empty generates one
	// on first use; read it back with TraceID.
	Trace string
	// Ops receives client-side wall-clock spans (create, step, snapshot,
	// restore, finish). Nil disables span recording.
	Ops *telemetry.OpLog
	// Registry receives client metrics (dcsprint_client_retries_total,
	// dcsprint_client_reconnects_total). Nil means the process-wide
	// telemetry.Default() registry.
	Registry *telemetry.Registry
	// Retry budgets step retries and Resume reconnect attempts. The zero
	// value takes the RetryPolicy defaults.
	Retry RetryPolicy

	mu         sync.Mutex
	seq        int64
	reqPrefix  []byte // Trace+".", the request ids' shared prefix
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	rng        *rand.Rand
}

// jitter spreads d uniformly over [d·(1−j/2), d·(1+j/2)] using the client's
// own PRNG — the process-global math/rand source would correlate backoffs
// across clients that share it.
func (c *Client) jitter(d time.Duration) time.Duration {
	j := c.Retry.withDefaults().Jitter
	if j <= 0 || d <= 0 {
		return d
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	f := 1 + j*(c.rng.Float64()-0.5)
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// TraceID returns the client's trace id, generating it on first use.
func (c *Client) TraceID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceLocked()
}

func (c *Client) traceLocked() string {
	if c.Trace == "" {
		c.Trace = telemetry.NewTraceID()
	}
	return c.Trace
}

// nextReq returns a fresh request id: the trace id, a dot and an ordinal.
func (c *Client) nextReq() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	trace := c.traceLocked()
	if len(c.reqPrefix) != len(trace)+1 || string(c.reqPrefix[:len(trace)]) != trace {
		// Spare capacity for the ordinal, so AppendInt never grows it.
		c.reqPrefix = append(append(make([]byte, 0, len(trace)+21), trace...), '.')
	}
	c.seq++
	return string(strconv.AppendInt(c.reqPrefix, c.seq, 10))
}

// retryCounter returns the client-retries counter, registering it lazily.
func (c *Client) retryCounter() *telemetry.Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retries == nil {
		reg := c.Registry
		if reg == nil {
			reg = telemetry.Default()
		}
		c.retries = reg.Counter("dcsprint_client_retries_total",
			"Step retries after HTTP 429 backpressure")
	}
	return c.retries
}

// reconnectCounter returns the stream-reconnects counter, registering it
// lazily.
func (c *Client) reconnectCounter() *telemetry.Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reconnects == nil {
		reg := c.Registry
		if reg == nil {
			reg = telemetry.Default()
		}
		c.reconnects = reg.Counter("dcsprint_client_reconnects_total",
			"Step streams re-attached by Resume after a broken connection")
	}
	return c.reconnects
}

// span records one client-side op span when Ops is set.
func (c *Client) span(name, session, rid string, start time.Time, detail string) {
	if c.Ops == nil {
		return
	}
	c.Ops.Record(telemetry.OpSpan{
		Trace:   c.TraceID(),
		Req:     rid,
		Name:    name,
		Side:    telemetry.SideClient,
		Session: session,
		StartUs: start.UnixMicro(),
		DurUs:   time.Since(start).Microseconds(),
		Detail:  detail,
	})
}

// APIError is a non-2xx response from the control plane.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's suggested backoff (from the Retry-After
	// header or an NDJSON line's retry_after_ms); zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// retryHint converts a server's backoff hint of n units to a duration. Hints
// outside (0s, 1h] are discarded: a zero, negative or absurdly long hint from
// a confused or hostile server must not stall the client.
func retryHint(n float64, unit time.Duration) time.Duration {
	if d := n * float64(unit); d > 0 && d <= float64(time.Hour) {
		return time.Duration(d)
	}
	return 0
}

// retryAfterHeader parses the Retry-After header: decimal seconds first —
// the form this control plane emits, fractional included, since sub-second
// backoffs matter at step cadence — then the RFC 9110 HTTP-date form that
// proxies and other servers send, interpreted relative to the response's
// own Date header when present. The hint is bounded by retryHint.
func retryAfterHeader(resp *http.Response) time.Duration {
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return retryHint(secs, time.Second)
	}
	if at, err := http.ParseTime(v); err == nil {
		now := time.Now()
		if sent, err := http.ParseTime(resp.Header.Get("Date")); err == nil {
			now = sent
		}
		return retryHint(float64(at.Sub(now)), time.Nanosecond)
	}
	return 0
}

// stamp attaches the trace headers for one request.
func (c *Client) stamp(req *http.Request, rid string) {
	req.Header.Set(HeaderTrace, c.TraceID())
	req.Header.Set(HeaderReq, rid)
}

func (c *Client) postJSON(ctx context.Context, path, rid string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.stamp(req, rid)
	return c.doJSON(req, http.StatusCreated, out)
}

func (c *Client) doJSON(req *http.Request, want int, out any) error {
	resp, err := c.do(req, want)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// do sends req and returns the response if its status is want. Any other
// status closes the body and is an *APIError.
func (c *Client) do(req *http.Request, want int) (*http.Response, error) {
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// apiError reads an error reply's message.
func apiError(resp *http.Response) *APIError {
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body) //nolint:errcheck
	return &APIError{Status: resp.StatusCode, Message: body.Error, RetryAfter: retryAfterHeader(resp)}
}

// Create opens a session.
func (c *Client) Create(ctx context.Context, spec ScenarioSpec) (*Session, error) {
	rid, start := c.nextReq(), time.Now()
	var s Session
	if err := c.postJSON(ctx, "/v1/sessions", rid, spec, &s); err != nil {
		c.span("create", "", rid, start, err.Error())
		return nil, err
	}
	c.span("create", s.ID, rid, start, "")
	return &s, nil
}

// Restore opens a session from a snapshot document.
func (c *Client) Restore(ctx context.Context, doc SnapshotDoc) (*Session, error) {
	rid, start := c.nextReq(), time.Now()
	var s Session
	if err := c.postJSON(ctx, "/v1/sessions/restore", rid, doc, &s); err != nil {
		c.span("restore", "", rid, start, err.Error())
		return nil, err
	}
	c.span("restore", s.ID, rid, start, "")
	return &s, nil
}

// Snapshot checkpoints a session.
func (c *Client) Snapshot(ctx context.Context, id string) (SnapshotDoc, error) {
	rid, start := c.nextReq(), time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/sessions/"+id+"/snapshot", nil)
	if err != nil {
		return SnapshotDoc{}, err
	}
	c.stamp(req, rid)
	var doc SnapshotDoc
	if err := c.doJSON(req, http.StatusOK, &doc); err != nil {
		c.span("snapshot", id, rid, start, err.Error())
		return SnapshotDoc{}, err
	}
	c.span("snapshot", id, rid, start, "")
	return doc, nil
}

// Finish seals a session and returns its result view.
func (c *Client) Finish(ctx context.Context, id string) (ResultView, error) {
	rid, start := c.nextReq(), time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.Base+"/v1/sessions/"+id, nil)
	if err != nil {
		return ResultView{}, err
	}
	c.stamp(req, rid)
	var v ResultView
	if err := c.finish(req, &v); err != nil {
		c.span("finish", id, rid, start, err.Error())
		return ResultView{}, err
	}
	c.span("finish", id, rid, start, "")
	return v, nil
}

// finish reads a finish reply whole and decodes it with the wire codec.
func (c *Client) finish(req *http.Request, v *ResultView) error {
	resp, err := c.do(req, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Content-Length sizes the buffer, up to the cap on request bodies.
	var body []byte
	if n := resp.ContentLength; n > 0 && n <= maxBodyBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return fmt.Errorf("service: reading finish reply: %w", err)
	}
	if err := decodeResultView(body, v); err != nil {
		return fmt.Errorf("service: decoding finish reply: %w", err)
	}
	return nil
}

// List returns the live sessions.
func (c *Client) List(ctx context.Context) ([]SessionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	c.stamp(req, c.nextReq())
	var infos []SessionInfo
	if err := c.doJSON(req, http.StatusOK, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Stream is an open steps stream: StepContext writes one demand line and
// reads one decision line, in lockstep with the server's per-line flushes.
// Every line carries a fresh request id, so the server can tag its spans,
// exemplars and flight events with it.
type Stream struct {
	body    *stepBody
	resp    *http.Response
	br      *bufio.Reader // resp.Body, read a line at a time
	buf     []byte        // the outgoing line, reused
	line    StepLine      // the incoming line, reused
	dec     stepDecoder   // the incoming lines' memo; a resumed stream starts empty
	c       *Client
	session string
	lastRID string

	hello     StreamHello
	seq       int64 // the tick the next Step applies to
	lastAcked int64 // tick of the last decision read; -1 before the first
}

// errStepBodyRead is what a steps stream body returns to a reader: only a
// transport that copies bodies through io.WriterTo, as net/http's HTTP/1.1
// Transport does, can carry the stream.
var errStepBodyRead = errors.New("service: the steps stream body is written through WriteTo; it needs the HTTP/1.1 Transport")

// stepBody is a steps stream's request body. The HTTP/1.1 Transport copies a
// request body with io.Copy, which hands its chunked connection writer to
// WriteTo on the Transport's write goroutine. WriteTo parks that writer here
// and blocks until the stream ends, so each step writes its line straight
// into the connection from the caller's goroutine, one flushed chunk per
// line, instead of waking the write goroutine for every line.
//
// The caller and the write goroutine share the connection's buffered
// writer, so mu keeps them apart: a Write holds it, and end takes it before
// releasing WriteTo. Once the body has ended, nothing but the write
// goroutine touches the writer again.
type stepBody struct {
	mu    sync.Mutex
	w     io.Writer // the chunked writer, set when WriteTo arrives
	n     int64     // bytes written through w
	ended bool
	err   error         // what WriteTo returns; nil for a clean close
	ready chan struct{} // closed once w is set or the body has ended
	done  chan struct{} // closed when the body ends; releases WriteTo
}

func newStepBody() *stepBody {
	return &stepBody{ready: make(chan struct{}), done: make(chan struct{})}
}

// WriteTo lends w to the stream's Writes until the body ends. A nil return
// lets the Transport write the terminating chunk; an error makes it drop the
// connection.
func (b *stepBody) WriteTo(w io.Writer) (int64, error) {
	b.mu.Lock()
	if b.ended {
		b.mu.Unlock()
		return 0, b.err
	}
	b.w = w
	close(b.ready)
	b.mu.Unlock()
	<-b.done
	return b.n, b.err
}

// Write sends one line as one chunk, waiting first for WriteTo to lend the
// writer. After the body has ended it returns io.ErrClosedPipe.
func (b *stepBody) Write(p []byte) (int, error) {
	<-b.ready
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ended {
		return 0, io.ErrClosedPipe
	}
	n, err := b.w.Write(p)
	b.n += int64(n)
	return n, err
}

// Read always fails: the stream has no fallback for a transport that reads.
func (b *stepBody) Read([]byte) (int, error) { return 0, errStepBodyRead }

// Close is the Transport letting go of the body: after WriteTo returns, or
// when it abandons the request. It ends the body, which wakes a waiting
// Write with an error.
func (b *stepBody) Close() error {
	b.end(io.ErrClosedPipe)
	return nil
}

// end releases WriteTo with err once, after any Write in flight.
func (b *stepBody) end(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ended {
		return
	}
	b.ended, b.err = true, err
	if b.w == nil {
		close(b.ready)
	}
	close(b.done)
}

// defaultStreamOpenTimeout bounds the stream open phase (dial, response
// headers, hello line) when the retry policy sets no OpTimeout. Opening a
// stream is a handful of small frames; anything this slow is a dead path.
const defaultStreamOpenTimeout = 30 * time.Second

// Stream opens the NDJSON steps stream for a session and reads the server's
// hello line, which names the tick the next step will apply to. The open
// phase is bounded by Retry.OpTimeout (defaultStreamOpenTimeout when unset):
// if the connection dies before the response headers arrive, the transport
// waits for its write goroutine, which holds the request body until the
// stream ends — only ending the body breaks that cycle.
//
// Steps write their lines from the caller's goroutine (see stepBody), which
// needs net/http's HTTP/1.1 Transport; a transport that reads request
// bodies instead fails the stream.
func (c *Client) Stream(ctx context.Context, id string) (*Stream, error) {
	body := newStepBody()
	openT := c.Retry.withDefaults().OpTimeout
	if openT <= 0 {
		openT = defaultStreamOpenTimeout
	}
	octx, ocancel := context.WithTimeout(ctx, openT)
	defer ocancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/sessions/"+id+"/steps", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	c.stamp(req, c.nextReq())
	// The server commits its headers before the first input line, so Do
	// returns while the request body stays open for streaming.
	stop := context.AfterFunc(octx, func() { body.end(octx.Err()) })
	resp, err := c.http().Do(req)
	stop()
	if err != nil {
		body.end(err)
		if octx.Err() != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("service: stream open timed out after %v: %w", openT, err)
		}
		return nil, err
	}
	s := &Stream{
		body: body, resp: resp, br: newLineReader(resp.Body),
		c: c, session: id,
	}
	if resp.StatusCode != http.StatusOK {
		err := apiError(resp)
		s.abort(err)
		return nil, err
	}
	// Read the hello under the open context: tear the stream down on
	// cancellation or open timeout, the only way to unblock the body read.
	stop = context.AfterFunc(octx, func() { s.abort(octx.Err()) })
	raw, err := readLine(s.br)
	if err == nil {
		err = json.Unmarshal(raw, &s.hello)
	}
	stop()
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	} else if err != nil && octx.Err() != nil {
		err = fmt.Errorf("service: stream open timed out after %v: %w", openT, err)
	}
	if err == nil && !s.hello.Hello {
		err = fmt.Errorf("service: steps stream did not start with a hello line")
	}
	if err != nil {
		s.abort(err)
		return nil, err
	}
	s.seq = s.hello.Tick
	s.lastAcked = s.hello.Tick - 1
	return s, nil
}

// abort tears the stream down. Closing the response body first ends the
// connection, which fails any Write in flight; only then is WriteTo
// released, so the Transport's write goroutine never touches the
// connection while a Write still does.
func (s *Stream) abort(err error) {
	s.resp.Body.Close()
	s.body.end(err)
}

// Tick returns the tick the next StepContext will apply to.
func (s *Stream) Tick() int64 { return s.seq }

// LastAcked returns the tick of the last decision this stream has read, or
// hello.Tick-1 right after attach — the value to pass to Resume if this
// stream breaks.
func (s *Stream) LastAcked() int64 { return s.lastAcked }

// Resume re-attaches to a session after a broken steps stream: it reopens
// the stream under the retry policy (transport errors, 429 and 503 are
// retried with backoff; 404 is permanent) and verifies the server's hello
// tick against lastAcked — the daemon journals a tick before acking it, so a
// server that greets below lastAcked+1 has lost acked state and the resume
// is refused rather than silently double-running ticks. A hello tick above
// lastAcked+1 is legitimate: those steps were applied and journaled but
// their acks were lost in the crash.
//
// lastAcked is Stream.LastAcked() from the broken stream (or -1 for a
// session never stepped). Successful resumes are counted in
// dcsprint_client_reconnects_total.
func (c *Client) Resume(ctx context.Context, id string, lastAcked int64) (*Stream, error) {
	p := c.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			hint := time.Duration(0)
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) {
				hint = apiErr.RetryAfter
			}
			if err := sleepCtx(ctx, p.backoff(attempt-1, hint, c.jitter)); err != nil {
				return nil, err
			}
		}
		st, err := c.Stream(ctx, id)
		if err == nil {
			if st.hello.Tick < lastAcked+1 {
				st.Close() //nolint:errcheck
				return nil, fmt.Errorf("service: resume of %s: server at tick %d but tick %d was acked — journaled state lost",
					id, st.hello.Tick, lastAcked)
			}
			st.lastAcked = lastAcked
			c.reconnectCounter().Inc()
			return st, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			switch apiErr.Status {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Capacity or a restart still draining/recovering: retryable.
			default:
				return nil, err
			}
		} else if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("service: resume of %s gave up after %d attempts: %w", id, p.MaxAttempts, lastErr)
}

// LastReq returns the request id of the most recent Step attempt — the
// breadcrumb to print next to a slow request so it can be found again in
// the merged timeline and the daemon's flight recorder.
func (s *Stream) LastReq() string { return s.lastRID }

// step sends one demand sample and waits for the tick's decision. A server
// error line is returned as an *APIError with the line's code.
func (s *Stream) step(demand float64) (Decision, error) {
	rid, start := s.c.nextReq(), time.Now()
	s.lastRID = rid
	d, err := s.stepRaw(demand, rid)
	if err != nil {
		s.c.span("step", s.session, rid, start, err.Error())
		return Decision{}, err
	}
	s.c.span("step", s.session, rid, start, "")
	return d, nil
}

func (s *Stream) stepRaw(demand float64, rid string) (Decision, error) {
	seq := s.seq
	var err error
	if s.buf, err = appendStepRequest(s.buf[:0], &StepRequest{Demand: demand, Seq: &seq, RID: rid}); err != nil {
		return Decision{}, err
	}
	if _, err = s.body.Write(s.buf); err != nil {
		return Decision{}, err
	}
	raw, err := readLine(s.br)
	if err != nil {
		return Decision{}, err
	}
	line := &s.line
	if err := s.dec.decodeStepLine(raw, line); err != nil {
		return Decision{}, err
	}
	if line.Err != "" {
		return Decision{}, &APIError{Status: line.Code, Message: line.Err,
			RetryAfter: retryHint(float64(line.RetryAfterMs), time.Millisecond)}
	}
	if line.Decision == nil {
		return Decision{}, fmt.Errorf("service: stream line with neither decision nor error")
	}
	s.lastAcked = int64(line.Decision.Tick)
	s.seq = s.lastAcked + 1
	return *line.Decision, nil
}

// stepOnce is one cancellable lockstep round trip. The stream protocol is a
// blocking lockstep over one connection, so cancellation mid-step tears the
// stream down (that is the only way to unblock the read) and returns the
// context's error; the stream is unusable afterwards, but the session
// survives for a new Stream, Snapshot or Finish.
func (s *Stream) stepOnce(ctx context.Context, demand float64) (Decision, error) {
	if err := ctx.Err(); err != nil {
		return Decision{}, err
	}
	// A context that cannot be canceled needs no teardown hook.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { s.abort(ctx.Err()) })
		defer stop()
	}
	d, err := s.step(demand)
	if cerr := ctx.Err(); cerr != nil {
		return Decision{}, cerr
	}
	return d, err
}

// StepContext is step with cancellation and budgeted backpressure retry
// under the client's RetryPolicy: a 429 reply (full session queue) is
// retried with exponential jittered backoff, honoring the server's
// Retry-After hint, each retry counted in dcsprint_client_retries_total.
// A 429 on the final attempt is returned to the caller, whose loop owns the
// long-term policy. Other errors — including transport failures, which kill
// the stream (Resume re-attaches) — return immediately. OpTimeout, when set,
// bounds each attempt; a fired deadline also tears the stream down, since
// abandoning a lockstep read means abandoning the connection.
func (s *Stream) StepContext(ctx context.Context, demand float64) (Decision, error) {
	p := s.c.Retry.withDefaults()
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.OpTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.OpTimeout)
		}
		d, err := s.stepOnce(actx, demand)
		if cancel != nil {
			cancel()
		}
		if err == nil || attempt+1 >= p.MaxAttempts {
			return d, err
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			return d, err
		}
		s.c.retryCounter().Inc()
		if serr := sleepCtx(ctx, p.backoff(attempt, apiErr.RetryAfter, s.c.jitter)); serr != nil {
			return Decision{}, serr
		}
	}
}

// Close ends the stream. The session stays alive for snapshots, further
// streams, or Finish.
func (s *Stream) Close() error {
	// A clean end: the Transport writes the terminating chunk, the server
	// ends its reply, and the drained connection goes back to the pool.
	s.body.end(nil)
	io.Copy(io.Discard, s.resp.Body) //nolint:errcheck // drain for connection reuse
	return s.resp.Body.Close()
}
