package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the traced run made into a layer's public API, or
// a rung grouping such calls. Spans of one session or rung share a trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// spansPerName bounds the in-memory span log: the first spansPerName spans
// of each name are kept (about 64 B each), later ones only counted, so every
// rung stays represented however many calls the rungs below it made.
const spansPerName = 8192

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	off     atomic.Bool // pauses recording for the trace-overhead baseline
	mu      sync.Mutex
	spans   []span
	perName map[string]int
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), perName: map[string]int{}} }

// id reserves a span id, for a parent recorded once its children are.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// reserve makes room for n more spans, so a loop whose allocations are
// being counted does not count the span log's growth.
func (t *tracer) reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if cap(t.spans)-len(t.spans) < n {
		grown := make([]span, len(t.spans), max(len(t.spans)+n, 2*cap(t.spans)))
		copy(grown, t.spans)
		t.spans = grown
	}
	t.mu.Unlock()
}

// rec records one finished span under id (0 assigns a fresh one) and
// returns its id.
func (t *tracer) rec(id, parent uint64, trace, name string, start, end time.Time) uint64 {
	if t == nil || t.off.Load() {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if t.perName[name] < spansPerName {
		t.perName[name]++
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// writeJSONL writes every kept span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
