package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEvent is one control-plane incident worth keeping for a post-mortem:
// a backpressure 429, a capacity rejection, an idle eviction, a restore
// failure, a slow step. The recorder keeps only the most recent events per
// shard, so a soak failure can be diagnosed without re-running it.
type FlightEvent struct {
	// Seq is a recorder-global sequence number (total order across shards).
	Seq uint64 `json:"seq"`
	// WallNs is the wall-clock time in nanoseconds since the Unix epoch.
	WallNs int64 `json:"wall_ns"`
	// Kind classifies the incident (see the Event* constants).
	Kind string `json:"kind"`
	// Shard is the shard the event belongs to (-1 when unassigned, e.g. a
	// capacity rejection before any session existed).
	Shard int `json:"shard"`
	// Session, Trace and Req link the event back to the wire trace that
	// caused it, when known.
	Session string `json:"session,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Req     string `json:"req,omitempty"`
	// Detail is a free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// Flight-event kinds recorded by the control plane and the fleet host.
const (
	EventBackpressure = "429"          // full session mailbox
	EventCapReject    = "cap-reject"   // session cap reached
	EventEvict        = "evict"        // idle session evicted
	EventRestore      = "restore"      // session recovered from its journal
	EventRestoreFail  = "restore-fail" // snapshot restore failed
	EventJournalFail  = "journal-fail" // journal write failed; session degraded to in-memory
	EventSlowStep     = "slow-step"    // step over the slow threshold
	EventSLOBreach    = "slo-breach"   // SLO watchdog rule started firing
	EventSLOClear     = "slo-clear"    // SLO watchdog rule stopped firing
	EventFleetSpill   = "fleet-spill"  // fleet router spilled a session off its home DC
	EventFleetReject  = "fleet-reject" // fleet router found every DC ledger exhausted
)

// flightRing is one shard's bounded event ring.
type flightRing struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int  // index of the slot the next event overwrites
	full bool // the ring has wrapped at least once
}

func (r *flightRing) record(ev FlightEvent) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// snapshot appends the ring's events, oldest first, to dst.
func (r *flightRing) snapshot(dst []FlightEvent) []FlightEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		dst = append(dst, r.buf[r.next:]...)
	}
	return append(dst, r.buf[:r.next]...)
}

// FlightRecorder is a per-shard set of bounded event rings: writes touch one
// short per-shard critical section and never allocate, so recording on the
// session hot path is cheap even when every shard is busy.
type FlightRecorder struct {
	rings []flightRing
	seq   atomic.Uint64
	total atomic.Uint64
}

// NewFlightRecorder returns a recorder with one ring per shard, each keeping
// the perShard most recent events. shards <= 0 means 1; perShard <= 0 means
// 256.
func NewFlightRecorder(shards, perShard int) *FlightRecorder {
	if shards <= 0 {
		shards = 1
	}
	if perShard <= 0 {
		perShard = 256
	}
	f := &FlightRecorder{rings: make([]flightRing, shards)}
	for i := range f.rings {
		f.rings[i].buf = make([]FlightEvent, perShard)
	}
	return f
}

// Record stamps the event with a sequence number and wall-clock time and
// stores it in its shard's ring. A negative shard is kept in the event but
// recorded in ring 0.
func (f *FlightRecorder) Record(shard int, ev FlightEvent) {
	ev.Seq = f.seq.Add(1)
	ev.WallNs = time.Now().UnixNano()
	ev.Shard = shard
	f.total.Add(1)
	idx := shard
	if idx < 0 {
		idx = 0
	}
	f.rings[idx%len(f.rings)].record(ev)
}

// Total returns how many events were ever recorded (including ones the
// rings have since overwritten).
func (f *FlightRecorder) Total() uint64 { return f.total.Load() }

// Events returns the retained events across all shards in sequence order.
func (f *FlightRecorder) Events() []FlightEvent {
	var out []FlightEvent
	for i := range f.rings {
		out = f.rings[i].snapshot(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteText dumps the retained events human-readably, one line each — the
// SIGQUIT post-mortem format.
func (f *FlightRecorder) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	evs := f.Events()
	fmt.Fprintf(bw, "flight recorder: %d retained of %d total events\n", len(evs), f.Total())
	for _, ev := range evs {
		ts := time.Unix(0, ev.WallNs).UTC().Format("15:04:05.000000")
		fmt.Fprintf(bw, "#%-6d %s shard=%-2d %-12s", ev.Seq, ts, ev.Shard, ev.Kind)
		if ev.Session != "" {
			fmt.Fprintf(bw, " session=%s", ev.Session)
		}
		if ev.Trace != "" {
			fmt.Fprintf(bw, " trace=%s", ev.Trace)
		}
		if ev.Req != "" {
			fmt.Fprintf(bw, " rid=%s", ev.Req)
		}
		if ev.Detail != "" {
			fmt.Fprintf(bw, " %s", ev.Detail)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
