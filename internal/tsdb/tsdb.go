// Package tsdb is a fixed-memory time-series store for live plant state.
//
// Each series keeps a staircase of three tiers: a ring of raw samples, a
// ring of sealed one-second buckets, and a ring of sealed ten-second
// buckets. Buckets carry min/max/sum/count, so peaks survive compaction —
// the worst breaker stress of an hour ago is still the worst, not an
// average that smoothed the trip away. Appends are O(1) under one short
// per-series mutex. The rings start small and double up to their
// configured capacity as they fill, so a short-lived series costs little;
// once a ring is full its appends stop allocating, and a control plane can
// feed thousands of sessions through a store without the store showing up
// in profiles.
//
// Timestamps are int64 milliseconds; callers choose the epoch (wall clock
// for a live daemon, simulation time for an offline run).
package tsdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Bucket is one aggregate over a time window: the staircase's unit of
// compaction and the unit a range query returns.
type Bucket struct {
	// Ts is the window start in milliseconds.
	Ts int64 `json:"ts"`
	// Min and Max bound every raw sample the window covers.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Sum and Count reconstruct the mean without losing it to nesting.
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
}

// Avg returns the window mean (0 for an empty bucket).
func (b Bucket) Avg() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

func (b *Bucket) add(v float64) {
	if b.Count == 0 {
		b.Min, b.Max = v, v
	} else {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	b.Sum += v
	b.Count++
}

func (b *Bucket) merge(o Bucket) {
	if o.Count == 0 {
		return
	}
	if b.Count == 0 {
		b.Min, b.Max = o.Min, o.Max
	} else {
		if o.Min < b.Min {
			b.Min = o.Min
		}
		if o.Max > b.Max {
			b.Max = o.Max
		}
	}
	b.Sum += o.Sum
	b.Count += o.Count
}

type sample struct {
	ts int64
	v  float64
}

// nTiers is the number of sealed downsampling tiers above the raw ring.
const nTiers = 2

// Options sizes a Store. Zero fields take defaults.
type Options struct {
	// RawCap is the per-series raw-sample ring capacity. Default 600.
	RawCap int
	// T1Cap and T2Cap are the sealed-bucket ring capacities for the two
	// aggregate tiers. Defaults 600 and 720 (10 minutes of 1s buckets,
	// 2 hours of 10s buckets at the default widths).
	T1Cap, T2Cap int
	// T1Width and T2Width are the tier bucket widths in milliseconds.
	// Defaults 1000 and 10000. T2Width must be a multiple of T1Width.
	T1Width, T2Width int64
	// MaxSeries caps how many series the store will create; further
	// Series calls return a nil series whose Append is a no-op and are
	// counted in Rejected. Zero means 1024.
	MaxSeries int
}

func (o *Options) fill() {
	if o.RawCap <= 0 {
		o.RawCap = 600
	}
	if o.T1Cap <= 0 {
		o.T1Cap = 600
	}
	if o.T2Cap <= 0 {
		o.T2Cap = 720
	}
	if o.T1Width <= 0 {
		o.T1Width = 1000
	}
	if o.T2Width <= 0 {
		o.T2Width = 10 * o.T1Width
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = 1024
	}
}

// bytesPerSeries estimates one series' memory cost once its rings are
// full, the worst case Sized budgets for.
func (o Options) bytesPerSeries() int64 {
	const sampleBytes, bucketBytes = 16, 40
	return int64(o.RawCap)*sampleBytes + int64(o.T1Cap+o.T2Cap+nTiers)*bucketBytes
}

// Sized returns default options whose MaxSeries fits the store into
// roughly memBytes of series memory. A non-positive budget means the
// default MaxSeries.
func Sized(memBytes int64) Options {
	var o Options
	o.fill()
	if memBytes > 0 {
		n := memBytes / o.bytesPerSeries()
		if n < 1 {
			n = 1
		}
		o.MaxSeries = int(n)
	}
	return o
}

// Store is a set of named series sharing one sizing policy. All methods
// are safe for concurrent use.
type Store struct {
	opts Options

	mu       sync.RWMutex
	series   map[string]*Series
	rejected int
}

// New returns an empty store.
func New(opts Options) *Store {
	opts.fill()
	return &Store{opts: opts, series: make(map[string]*Series)}
}

// Options returns the store's effective (filled) sizing.
func (st *Store) Options() Options { return st.opts }

// Rejected returns how many Series calls the MaxSeries cap refused.
func (st *Store) Rejected() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rejected
}

// Series returns the named series, creating it on first use. Once
// MaxSeries distinct names exist, unknown names return nil — and a nil
// *Series accepts (and discards) Append calls, so callers need no
// cap-awareness on the hot path.
func (st *Store) Series(name string) *Series {
	st.mu.RLock()
	s := st.series[name]
	st.mu.RUnlock()
	if s != nil {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s = st.series[name]; s != nil {
		return s
	}
	if len(st.series) >= st.opts.MaxSeries {
		st.rejected++
		return nil
	}
	s = newSeries(name, st.opts)
	st.series[name] = s
	return s
}

// Lookup returns the named series or nil without creating it.
func (st *Store) Lookup(name string) *Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.series[name]
}

// Remove deletes the named series, freeing its slot under MaxSeries.
// Writers still holding the old *Series keep appending into the orphan,
// which is garbage once they drop it.
func (st *Store) Remove(name string) {
	st.mu.Lock()
	delete(st.series, name)
	st.mu.Unlock()
}

// Names returns every live series name, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	out := make([]string, 0, len(st.series))
	for name := range st.series {
		out = append(out, name)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Query aggregates the named series over [from, to) into buckets of the
// given step width (milliseconds), stitching raw samples and sealed
// tiers so the finest retained resolution wins everywhere. Empty output
// buckets are omitted. An unknown series returns an error.
func (st *Store) Query(name string, from, to, step int64) ([]Bucket, error) {
	s := st.Lookup(name)
	if s == nil {
		return nil, fmt.Errorf("tsdb: unknown series %q", name)
	}
	return s.Query(from, to, step), nil
}

// Series is one named time series: a raw ring plus sealed aggregate
// tiers. Append-only; a nil *Series discards appends.
type Series struct {
	name string
	opts Options

	mu sync.Mutex
	// raw ring of samples, next the slot the next append overwrites. Each
	// ring grows by doubling (see grow) until it reaches its configured
	// capacity, and wraps only then.
	raw     []sample
	rawNext int
	rawFull bool
	// cur are the open, still-accumulating buckets per tier; curOn
	// marks whether a tier's open bucket holds anything yet.
	cur   [nTiers]Bucket
	curOn [nTiers]bool
	// sealed bucket rings per tier.
	tiers    [nTiers][]Bucket
	tierNext [nTiers]int
	tierFull [nTiers]bool

	appended uint64 // samples ever appended
	lastTs   int64
}

func newSeries(name string, opts Options) *Series {
	return &Series{name: name, opts: opts}
}

// firstRing is the length a ring starts at on its first append.
const firstRing = 16

// grow returns ring with at least one more slot than len(ring): twice as
// long, starting at firstRing, and never longer than limit. The contents
// keep their indices, which is all a ring that has not yet wrapped needs.
func grow[T any](ring []T, limit int) []T {
	n := 2 * len(ring)
	if n < firstRing {
		n = firstRing
	}
	if n > limit {
		n = limit
	}
	out := make([]T, n)
	copy(out, ring)
	return out
}

func (s *Series) tierCap(tier int) int {
	if tier == 0 {
		return s.opts.T1Cap
	}
	return s.opts.T2Cap
}

// Name returns the series name ("" on nil).
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

func (s *Series) width(tier int) int64 {
	if tier == 0 {
		return s.opts.T1Width
	}
	return s.opts.T2Width
}

// Append records one sample. Timestamps should be non-decreasing; a
// sample older than a tier's open bucket folds into that open bucket
// (its window annexes the straggler rather than reopening history).
func (s *Series) Append(ts int64, v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	s.mu.Lock()
	if s.rawNext == len(s.raw) {
		s.raw = grow(s.raw, s.opts.RawCap)
	}
	s.raw[s.rawNext] = sample{ts: ts, v: v}
	s.rawNext++
	if s.rawNext == s.opts.RawCap {
		s.rawNext = 0
		s.rawFull = true
	}
	for t := 0; t < nTiers; t++ {
		w := s.width(t)
		start := ts - mod(ts, w)
		if s.curOn[t] && start > s.cur[t].Ts {
			s.seal(t)
		}
		if !s.curOn[t] {
			s.cur[t] = Bucket{Ts: start}
			s.curOn[t] = true
		}
		s.cur[t].add(v)
	}
	s.appended++
	s.lastTs = ts
	s.mu.Unlock()
}

// mod is a non-negative modulus so negative timestamps bucket correctly.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// seal pushes tier t's open bucket into its ring.
func (s *Series) seal(t int) {
	if s.tierNext[t] == len(s.tiers[t]) {
		s.tiers[t] = grow(s.tiers[t], s.tierCap(t))
	}
	s.tiers[t][s.tierNext[t]] = s.cur[t]
	s.tierNext[t]++
	if s.tierNext[t] == s.tierCap(t) {
		s.tierNext[t] = 0
		s.tierFull[t] = true
	}
	s.curOn[t] = false
}

// Appended returns how many samples were ever appended (0 on nil).
func (s *Series) Appended() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// LastTs returns the most recent appended timestamp (0 before any).
func (s *Series) LastTs() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTs
}

// Last returns the most recent sample value and whether one exists.
func (s *Series) Last() (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appended == 0 {
		return 0, false
	}
	i := s.rawNext - 1
	if i < 0 {
		i = len(s.raw) - 1
	}
	return s.raw[i].v, true
}

// Query aggregates [from, to) into step-wide buckets; see Store.Query.
//
// Stitching is exact: every retained sample contributes to exactly one
// source. While the raw ring has never wrapped it holds the complete
// history and is the only source. Once it wraps, the sealed tiers take
// over the evicted past with bucket-granular handoffs — a sealed bucket
// is complete (it holds every sample of its window), so the finer
// source simply skips everything below the coarser source's covered
// end. The only data a query cannot see is what no source retains any
// more, plus (under sampling faster than RawCap per bucket width) the
// slice of the still-open finest bucket that fell off the raw ring.
func (s *Series) Query(from, to, step int64) []Bucket {
	if s == nil || to <= from {
		return nil
	}
	if step <= 0 {
		step = s.opts.T1Width
	}
	s.mu.Lock()
	// ceil((to-from)/step), written so a huge step cannot overflow.
	n := int((to-from-1)/step + 1)
	out := make([]Bucket, n)
	on := make([]bool, n)
	fold := func(ts int64, b Bucket) {
		if ts < from || ts >= to {
			return
		}
		i := int((ts - from) / step)
		if !on[i] {
			out[i] = Bucket{Ts: from + int64(i)*step}
			on[i] = true
		}
		out[i].merge(b)
	}
	const minInt64 = math.MinInt64
	rawFrom := int64(minInt64) // raw emits samples with ts >= rawFrom
	if s.rawFull {
		rawOldest := s.raw[s.rawNext].ts
		// t1Horizon: below it neither raw nor sealed T1 has anything,
		// so sealed T2 must serve. The T2 bucket straddling the horizon
		// is emitted whole (its older half exists nowhere else); the
		// finer sources then skip everything below its end.
		t1Horizon := rawOldest
		s.eachSealed(0, func(b Bucket) {
			if b.Ts < t1Horizon {
				t1Horizon = b.Ts
			}
		})
		coveredEnd2 := int64(minInt64)
		s.eachSealed(1, func(b Bucket) {
			if b.Ts >= t1Horizon {
				return
			}
			fold(b.Ts, b)
			if end := b.Ts + s.opts.T2Width; end > coveredEnd2 {
				coveredEnd2 = end
			}
		})
		// Sealed T1 serves only windows raw has evicted; the bucket
		// straddling rawOldest is emitted whole and pushes raw's start
		// past its end so its younger half is not double counted.
		rawFrom = coveredEnd2
		s.eachSealed(0, func(b Bucket) {
			if b.Ts >= rawOldest || b.Ts < coveredEnd2 {
				return
			}
			fold(b.Ts, b)
			if end := b.Ts + s.opts.T1Width; end > rawFrom {
				rawFrom = end
			}
		})
	}
	iter := func(sm sample) {
		if sm.ts >= rawFrom {
			fold(sm.ts, Bucket{Min: sm.v, Max: sm.v, Sum: sm.v, Count: 1})
		}
	}
	if s.rawFull {
		for _, sm := range s.raw[s.rawNext:] {
			iter(sm)
		}
	}
	for _, sm := range s.raw[:s.rawNext] {
		iter(sm)
	}
	s.mu.Unlock()
	res := out[:0]
	for i := range out {
		if on[i] {
			res = append(res, out[i])
		}
	}
	return res
}

// eachSealed visits tier t's sealed buckets, oldest first. Caller holds mu.
func (s *Series) eachSealed(t int, fn func(Bucket)) {
	ring := s.tiers[t]
	if s.tierFull[t] {
		for _, b := range ring[s.tierNext[t]:] {
			fn(b)
		}
	}
	for _, b := range ring[:s.tierNext[t]] {
		fn(b)
	}
}

// jsonlPoint is one WriteJSONL line: a raw sample (tier "raw", count 1)
// or a sealed aggregate bucket (tier "1s"/"10s" by width).
type jsonlPoint struct {
	Series string  `json:"series"`
	Tier   string  `json:"tier"`
	Ts     int64   `json:"ts"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Sum    float64 `json:"sum"`
	Count  uint64  `json:"count"`
}

// WriteJSONL dumps every series — raw ring and sealed tiers, oldest
// first per tier — one JSON object per line. This is the offline
// -series-out format: a run's full retained plant history, replayable
// into any JSONL tool.
func (st *Store) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, name := range st.Names() {
		s := st.Lookup(name)
		if s == nil {
			continue
		}
		if err := s.writeJSONL(enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (s *Series) writeJSONL(enc *json.Encoder) error {
	s.mu.Lock()
	pts := make([]jsonlPoint, 0, len(s.raw)+len(s.tiers[0])+len(s.tiers[1]))
	for t := nTiers - 1; t >= 0; t-- {
		tier := fmt.Sprintf("%ds", s.width(t)/1000)
		add := func(b Bucket) {
			if b.Count > 0 {
				pts = append(pts, jsonlPoint{Series: s.name, Tier: tier,
					Ts: b.Ts, Min: b.Min, Max: b.Max, Sum: b.Sum, Count: b.Count})
			}
		}
		if s.tierFull[t] {
			for _, b := range s.tiers[t][s.tierNext[t]:] {
				add(b)
			}
		}
		for _, b := range s.tiers[t][:s.tierNext[t]] {
			add(b)
		}
		if s.curOn[t] {
			add(s.cur[t])
		}
	}
	addRaw := func(sm sample) {
		pts = append(pts, jsonlPoint{Series: s.name, Tier: "raw",
			Ts: sm.ts, Min: sm.v, Max: sm.v, Sum: sm.v, Count: 1})
	}
	if s.rawFull {
		for _, sm := range s.raw[s.rawNext:] {
			addRaw(sm)
		}
	}
	for _, sm := range s.raw[:s.rawNext] {
		addRaw(sm)
	}
	s.mu.Unlock()
	for _, p := range pts {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}
