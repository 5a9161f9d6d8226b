// Package telemetry is the unified instrumentation layer of dcsprint: a
// zero-dependency metrics registry (counters, gauges, fixed-bucket
// histograms) and the sinks that get the data out — Prometheus text
// exposition, the JSONL sprint-lifecycle trace record, wall-clock op spans,
// per-tick CSV tables and a live HTTP endpoint.
//
// Everything is safe for concurrent use: experiment campaigns fan runs out
// with campaign.Sweep, and many goroutines may observe into one registry while
// an HTTP scrape reads it.
//
// Metric names follow the convention
//
//	dcsprint_<subsystem>_<name>_<unit>
//
// e.g. dcsprint_power_dc_load_watts or dcsprint_controller_degree_ratio.
// Counters additionally end in _total.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with lock-free Add/Set via CAS on the bit
// pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	val atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.val.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.val.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.val.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	val atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.val.Store(v) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { g.val.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket always exists.
type Histogram struct {
	uppers    []float64
	counts    []atomic.Uint64 // one per upper, plus +Inf last
	exemplars []atomic.Pointer[Exemplar]
	sum       atomicFloat
	total     atomic.Uint64
}

// Exemplar links one bucket back to the request that landed there most
// recently — the breadcrumb that lets a p99 spike in /metrics be joined to a
// flight-recorder entry or a wire trace by request id.
type Exemplar struct {
	// RID is the request id of the observation.
	RID string
	// Value is the observed value.
	Value float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v, nil) }

// ObserveWithExemplar records one value and remembers rid as the bucket's
// exemplar (a no-op exemplar-wise when rid is empty).
func (h *Histogram) ObserveWithExemplar(v float64, rid string) {
	if rid == "" {
		h.observe(v, nil)
		return
	}
	h.observe(v, &Exemplar{RID: rid, Value: v})
}

func (h *Histogram) observe(v float64, ex *Exemplar) {
	if math.IsNaN(v) {
		return
	}
	bucket := len(h.uppers)
	for i, ub := range h.uppers {
		if v <= ub {
			bucket = i
			break
		}
	}
	h.counts[bucket].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
	if ex != nil {
		h.exemplars[bucket].Store(ex)
	}
}

// Exemplars returns the per-bucket exemplars (nil entries for buckets that
// never saw an exemplar-carrying observation); the last entry is the +Inf
// bucket, matching Buckets.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts by
// linear interpolation inside the target bucket, assuming non-negative
// observations. Observations in the +Inf bucket are attributed to the
// highest finite upper bound — the best a fixed-bucket histogram can do.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 || len(h.uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, ub := range h.uppers {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.uppers[i-1]
			}
			frac := (rank - cum) / n
			return lower + (ub-lower)*frac
		}
		cum += n
	}
	return h.uppers[len(h.uppers)-1]
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Buckets returns the upper bounds and the non-cumulative per-bucket counts
// (the last entry is the +Inf bucket).
func (h *Histogram) Buckets() ([]float64, []uint64) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.uppers, counts
}

// metricType tags a registered metric family.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: a type, a help string, and one child per label
// set.
type family struct {
	name     string
	help     string
	typ      metricType
	children map[string]any // label signature -> *Counter | *Gauge | *Histogram
	labels   map[string]Labels
}

// Labels is an optional set of label pairs attached to a metric child.
type Labels map[string]string

// signature serializes labels deterministically for child lookup.
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, l[k])
	}
	return b.String()
}

// Registry holds metric families by name. The zero value is not usable; use
// NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	hookMu sync.Mutex
	hooks  []func()
}

// OnScrape registers fn to run at the start of every WritePrometheus call,
// before any family is read. Probes whose values are cheapest to compute on
// demand (runtime stats, queue depths) update their gauges here instead of
// polling. Hooks must not call WritePrometheus.
func (r *Registry) OnScrape(fn func()) {
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// runScrapeHooks runs the registered hooks outside the family lock, so a
// hook may freely register or update metrics.
func (r *Registry) runScrapeHooks() {
	r.hookMu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry lightweight probes feed.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Long-lived probes (per-run
// counters in sim, fault-injector tallies) observe into it so any CLI can
// expose one consolidated /metrics without plumbing a registry everywhere.
func Default() *Registry { return defaultRegistry }

// validName enforces the Prometheus metric-name grammar.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup returns the family, creating it on first use; it panics on a name
// reused with a different type — a programming error worth failing loudly on.
func (r *Registry) lookup(name, help string, typ metricType) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:     name,
			help:     help,
			typ:      typ,
			children: make(map[string]any),
			labels:   make(map[string]Labels),
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", name, f.typ, typ))
	}
	return f
}

// child returns the family child for the label set, creating it with mk on
// first use.
func (f *family) child(l Labels, mk func() any) any {
	sig := l.signature()
	if c, ok := f.children[sig]; ok {
		return c
	}
	c := mk()
	f.children[sig] = c
	if len(l) > 0 {
		cp := make(Labels, len(l))
		for k, v := range l {
			cp[k] = v
		}
		f.labels[sig] = cp
	}
	return c
}

// Counter returns the unlabeled counter with the given name, registering it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith returns the counter child for the label set.
func (r *Registry) CounterWith(name, help string, l Labels) *Counter {
	f := r.lookup(name, help, typeCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.child(l, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name, registering it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith returns the gauge child for the label set.
func (r *Registry) GaugeWith(name, help string, l Labels) *Gauge {
	f := r.lookup(name, help, typeGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.child(l, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabeled histogram with the given name and bucket
// upper bounds, registering it on first use. Buckets must be sorted
// ascending; they are fixed for the family's lifetime.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramWith(name, help, buckets, nil)
}

// HistogramWith returns the histogram child for the label set.
func (r *Registry) HistogramWith(name, help string, buckets []float64, l Labels) *Histogram {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets not sorted", name))
	}
	f := r.lookup(name, help, typeHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.child(l, func() any {
		uppers := make([]float64, len(buckets))
		copy(uppers, buckets)
		return &Histogram{
			uppers:    uppers,
			counts:    make([]atomic.Uint64, len(uppers)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(uppers)+1),
		}
	}).(*Histogram)
}

// LinearBuckets returns count upper bounds starting at start, spaced width
// apart — the fixed-bucket helper for ratios and temperatures.
func LinearBuckets(start, width float64, count int) []float64 {
	if count <= 0 {
		return nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
