package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler is the tsdb debug HTTP surface:
//
//	GET /debug/tsdb                          list series names
//	GET /debug/tsdb?series=X&from=&to=&step= range query (ms timestamps;
//	    from/to <= 0 are relative to now, so from=-60000 is "last minute";
//	    a range needing more than maxQueryBuckets buckets is a 400)
//	GET /debug/slo                           rules + active alerts
//	GET /debug/dash                          self-contained live dashboard
//
// Multiple comma-separated series query as one batch (the dashboard's
// poll); a single unknown series is a 404, unknown members of a batch
// return empty bucket lists so a young daemon renders empty charts
// rather than erroring.
type Handler struct {
	store *Store
	wd    *Watchdog // may be nil: /debug/slo serves empty sets
	clock func() int64
}

// NewHandler returns a handler over store and an optional watchdog.
func NewHandler(store *Store, wd *Watchdog) *Handler {
	return &Handler{store: store, wd: wd, clock: func() int64 { return time.Now().UnixMilli() }}
}

// Register mounts the handler's routes on mux.
func (h *Handler) Register(mux *http.ServeMux) {
	mux.HandleFunc("/debug/tsdb", h.handleTSDB)
	mux.HandleFunc("/debug/slo", h.handleSLO)
	mux.HandleFunc("/debug/dash", h.handleDash)
}

// maxQueryBuckets bounds the buckets one range query may return per
// series: Series.Query allocates them all up front, so an unbounded
// from/to/step from the URL could exhaust the daemon's memory.
const maxQueryBuckets = 10_000

// queryResponse is the /debug/tsdb?series= wire shape.
type queryResponse struct {
	Now    int64               `json:"now"`
	From   int64               `json:"from"`
	To     int64               `json:"to"`
	Step   int64               `json:"step"`
	Series map[string][]Bucket `json:"series"`
}

// listResponse is the bare /debug/tsdb wire shape.
type listResponse struct {
	Now      int64    `json:"now"`
	Rejected int      `json:"rejected"`
	Series   []string `json:"series"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client went away
}

// errorResponse is the structured shape of a /debug/tsdb 400: machine-
// readable for batch callers that want to know which series name broke.
type errorResponse struct {
	Error  string `json:"error"`
	Series string `json:"series,omitempty"`
}

func writeErrorJSON(w http.ResponseWriter, status int, e errorResponse) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e) //nolint:errcheck // client went away
}

// validSeriesName rejects series names a store would never hold: empty,
// oversized, non-printable-ASCII, or with broken label-brace structure.
// Batch queries check each member up front so a malformed name is a
// structured 400 naming the offender, not a silent empty bucket list.
func validSeriesName(name string) bool {
	if name == "" || len(name) > 256 {
		return false
	}
	braces := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c < 0x21 || c > 0x7e {
			return false
		}
		switch c {
		case '{':
			braces++
			if braces > 1 {
				return false
			}
		case '}':
			// A closing brace is only valid as the final byte of a
			// single label block.
			if braces != 1 || i != len(name)-1 {
				return false
			}
			braces = 2
		}
	}
	return braces == 0 || braces == 2
}

// paramInt64 parses an integer query parameter, def when absent.
func paramInt64(r *http.Request, name string, def int64) (int64, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (h *Handler) handleTSDB(w http.ResponseWriter, r *http.Request) {
	now := h.clock()
	names := r.URL.Query().Get("series")
	if names == "" {
		writeJSON(w, listResponse{Now: now, Rejected: h.store.Rejected(), Series: h.store.Names()})
		return
	}
	from, ok1 := paramInt64(r, "from", -60_000)
	to, ok2 := paramInt64(r, "to", 0)
	step, ok3 := paramInt64(r, "step", 0)
	if !ok1 || !ok2 || !ok3 {
		http.Error(w, "tsdb: from, to and step must be integers (milliseconds)", http.StatusBadRequest)
		return
	}
	// Non-positive bounds anchor to now: from=-300000&to=0 is "last 5m".
	if from <= 0 {
		from += now
	}
	if to <= 0 {
		to += now
	}
	if to <= from {
		http.Error(w, "tsdb: empty range", http.StatusBadRequest)
		return
	}
	span := to - from
	if span <= 0 {
		http.Error(w, "tsdb: range overflows", http.StatusBadRequest)
		return
	}
	if step <= 0 {
		// Default to ~240 buckets across the range, at least 1ms.
		step = max(span/240, 1)
	}
	// ceil(span/step), written so a huge step cannot overflow.
	if (span-1)/step+1 > maxQueryBuckets {
		http.Error(w, "tsdb: range needs more than "+strconv.Itoa(maxQueryBuckets)+" buckets; widen step",
			http.StatusBadRequest)
		return
	}
	list := strings.Split(names, ",")
	resp := queryResponse{Now: now, From: from, To: to, Step: step,
		Series: make(map[string][]Bucket, len(list))}
	for _, name := range list {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !validSeriesName(name) {
			writeErrorJSON(w, http.StatusBadRequest,
				errorResponse{Error: "tsdb: malformed series name", Series: name})
			return
		}
		s := h.store.Lookup(name)
		if s == nil {
			if len(list) == 1 {
				http.Error(w, "tsdb: unknown series "+name, http.StatusNotFound)
				return
			}
			resp.Series[name] = []Bucket{}
			continue
		}
		b := s.Query(from, to, step)
		if b == nil {
			b = []Bucket{}
		}
		resp.Series[name] = b
	}
	writeJSON(w, resp)
}

// sloResponse is the /debug/slo wire shape.
type sloResponse struct {
	Now    int64   `json:"now"`
	Rules  []Rule  `json:"rules"`
	Active []Alert `json:"active"`
}

func (h *Handler) handleSLO(w http.ResponseWriter, r *http.Request) {
	resp := sloResponse{Now: h.clock(), Rules: []Rule{}, Active: []Alert{}}
	if h.wd != nil {
		resp.Rules = h.wd.Rules()
		resp.Active = h.wd.Active()
	}
	writeJSON(w, resp)
}

func (h *Handler) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashHTML)) //nolint:errcheck
}
