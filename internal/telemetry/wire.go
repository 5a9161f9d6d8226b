package telemetry

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file is the distributed trace: wall-clock operation
// spans stamped with a wire-propagated trace/request ID, recorded
// independently on the client and server side of the control plane, and
// merged afterwards into one Chrome trace_event timeline (loadable in
// chrome://tracing and Perfetto).
//
// The simulation-time lifecycle trace (core.TraceRecords over a Result's
// event log) brackets what happened *inside* a run; OpSpans
// bracket what happened *to* the run as it crossed the wire — admission,
// queue wait, engine step, snapshot, eviction, drain — keyed so a client
// round trip and the server work it caused line up in one timeline.

// OpSpan is one wall-clock operation span in a distributed trace.
type OpSpan struct {
	// Trace identifies the whole client interaction (one per session
	// drive). Propagated over the wire and echoed back.
	Trace string `json:"trace,omitempty"`
	// Req identifies one request within the trace (one NDJSON step line,
	// one create call). Client-stamped, server-echoed; the join key when
	// merging the two sides.
	Req string `json:"req,omitempty"`
	// Name is the operation: "create", "step", "queue-wait", "admission",
	// "snapshot", "evict", "drain", ...
	Name string `json:"name"`
	// Side records who observed the span: "client" or "server".
	Side string `json:"side"`
	// Session is the session id the span belongs to, when known.
	Session string `json:"session,omitempty"`
	// StartUs is the wall-clock start in microseconds since the Unix epoch.
	StartUs int64 `json:"start_us"`
	// DurUs is the span length in microseconds (0 for instant events).
	DurUs int64 `json:"dur_us"`
	// Detail is a free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// Span sides.
const (
	SideClient = "client"
	SideServer = "server"
)

// NewTraceID returns a fresh 16-hex-char trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("telemetry: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// defaultOpLogCap bounds an OpLog that was not given an explicit capacity:
// ~96 bytes per span keeps the worst case around 100 MB, far above any
// soak we run while still bounded.
const defaultOpLogCap = 1 << 20

// OpLog is a bounded, concurrency-safe log of operation spans. Once full it
// drops new spans and counts them, so a runaway stream degrades telemetry
// instead of memory.
type OpLog struct {
	mu      sync.Mutex
	max     int
	spans   []OpSpan
	dropped int
}

// NewOpLog returns an empty log holding at most max spans (<=0 means the
// default of about one million).
func NewOpLog(max int) *OpLog {
	if max <= 0 {
		max = defaultOpLogCap
	}
	return &OpLog{max: max}
}

// Record appends one span, dropping it if the log is full.
func (l *OpLog) Record(s OpSpan) {
	l.mu.Lock()
	if len(l.spans) >= l.max {
		l.dropped++
	} else {
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

// Len returns the number of recorded spans.
func (l *OpLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Dropped returns how many spans were discarded because the log was full.
func (l *OpLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Spans returns a copy of the recorded spans sorted by start time.
func (l *OpLog) Spans() []OpSpan {
	l.mu.Lock()
	out := make([]OpSpan, len(l.spans))
	copy(out, l.spans)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUs < out[j].StartUs })
	return out
}

// WriteJSONL exports the spans one JSON object per line, sorted by start.
func (l *OpLog) WriteJSONL(w io.Writer) error {
	return l.WriteLastJSONL(w, -1)
}

// WriteLastJSONL is WriteJSONL limited to the n latest-starting spans; a
// negative n exports everything. A bounded dump keeps mid-soak scrapes of
// /debug/ops.jsonl cheap when the log holds hundreds of thousands of spans.
func (l *OpLog) WriteLastJSONL(w io.Writer, n int) error {
	spans := l.Spans()
	if n >= 0 && n < len(spans) {
		spans = spans[len(spans)-n:]
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadOpJSONL parses an OpSpan JSONL stream back — the input format of the
// trace merge tool.
func ReadOpJSONL(r io.Reader) ([]OpSpan, error) {
	dec := json.NewDecoder(r)
	var out []OpSpan
	for {
		var s OpSpan
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: op span %d: %w", len(out)+1, err)
		}
		if s.Name == "" {
			return nil, fmt.Errorf("telemetry: op span %d: missing name", len(out)+1)
		}
		out = append(out, s)
	}
}

// ChromeEvent is one entry of the Chrome trace_event format ("X" complete
// events plus "M" metadata), the subset Perfetto and chrome://tracing load.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"` // microseconds, normalized to the earliest span
	Dur  int64             `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON object Perfetto expects.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// MergeTraceEvents joins a client-side and a server-side span stream into a
// single timeline. Spans sharing a request id are forced to nest: the server
// work a request caused is clamped into the client round-trip span that
// carried it, so small clock skew between the two logs cannot break the
// visual (or tested) containment. Each session (or trace, for spans with no
// session yet) gets its own thread track.
func MergeTraceEvents(client, server []OpSpan) []ChromeEvent {
	all := make([]OpSpan, 0, len(client)+len(server))
	all = append(all, client...)
	all = append(all, server...)
	if len(all) == 0 {
		return nil
	}

	// Parent lookup: a client span with a request id owns every server span
	// carrying the same id.
	parents := make(map[string]OpSpan, len(client))
	for _, s := range client {
		if s.Req != "" {
			parents[s.Req] = s
		}
	}
	for i := range server {
		p, ok := parents[server[i].Req]
		if !ok || server[i].Req == "" {
			continue
		}
		ps, pe := p.StartUs, p.StartUs+p.DurUs
		s, e := server[i].StartUs, server[i].StartUs+server[i].DurUs
		if s < ps {
			s = ps
		}
		if e > pe {
			e = pe
		}
		if e < s {
			s, e = ps, ps
		}
		server[i].StartUs, server[i].DurUs = s, e-s
	}
	// Reassemble after clamping.
	all = all[:0]
	all = append(all, client...)
	all = append(all, server...)

	base := all[0].StartUs
	for _, s := range all {
		if s.StartUs < base {
			base = s.StartUs
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].StartUs != all[j].StartUs {
			return all[i].StartUs < all[j].StartUs
		}
		// Longer spans first so parents precede children at equal start.
		return all[i].DurUs > all[j].DurUs
	})

	// One thread per session; spans that never learned their session (e.g. a
	// failed create) track by trace id instead.
	tids := make(map[string]int)
	tidOf := func(s OpSpan) int {
		key := s.Session
		if key == "" {
			key = s.Trace
		}
		if key == "" {
			key = "-"
		}
		id, ok := tids[key]
		if !ok {
			id = len(tids) + 1
			tids[key] = id
		}
		return id
	}

	const pid = 1
	events := []ChromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": "dcsprint control plane"},
	}}
	named := make(map[int]bool)
	for _, s := range all {
		tid := tidOf(s)
		if !named[tid] {
			named[tid] = true
			label := s.Session
			if label == "" {
				label = s.Trace
			}
			events = append(events, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]string{"name": "session " + label},
			})
		}
		args := map[string]string{}
		if s.Trace != "" {
			args["trace"] = s.Trace
		}
		if s.Req != "" {
			args["rid"] = s.Req
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		events = append(events, ChromeEvent{
			Name: s.Side + ":" + s.Name,
			Ph:   "X",
			Ts:   s.StartUs - base,
			Dur:  s.DurUs,
			Pid:  pid,
			Tid:  tid,
			Cat:  s.Side,
			Args: args,
		})
	}
	return events
}

// WriteChromeTrace writes the events as a Perfetto-loadable JSON document.
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if events == nil {
		events = []ChromeEvent{}
	}
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadChromeTrace parses a document written by WriteChromeTrace back — used
// by tests validating span nesting.
func ReadChromeTrace(r io.Reader) ([]ChromeEvent, error) {
	var doc chromeTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	return doc.TraceEvents, nil
}
