package tsdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestQueryRawOnly(t *testing.T) {
	st := New(Options{})
	s := st.Series("a")
	for i := 0; i < 100; i++ {
		s.Append(int64(i)*1000, float64(i))
	}
	got, err := st.Query("a", 0, 100_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("buckets = %d, want 100", len(got))
	}
	for i, b := range got {
		if b.Ts != int64(i)*1000 || b.Count != 1 || b.Min != float64(i) || b.Max != float64(i) {
			t.Fatalf("bucket %d = %+v", i, b)
		}
	}
	// Aggregation into coarser steps keeps peaks and totals.
	got, err = st.Query("a", 0, 100_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("10s buckets = %d, want 10", len(got))
	}
	if b := got[3]; b.Min != 30 || b.Max != 39 || b.Count != 10 || b.Avg() != 34.5 {
		t.Fatalf("bucket 3 = %+v avg %v", b, b.Avg())
	}
}

func TestQueryRange(t *testing.T) {
	st := New(Options{})
	s := st.Series("a")
	for i := 0; i < 50; i++ {
		s.Append(int64(i)*1000, float64(i))
	}
	got, _ := st.Query("a", 10_000, 20_000, 1000)
	if len(got) != 10 || got[0].Ts != 10_000 || got[9].Ts != 19_000 {
		t.Fatalf("range query = %+v", got)
	}
	if _, err := st.Query("missing", 0, 1, 1); err == nil {
		t.Fatal("expected error for unknown series")
	}
	if got, _ := st.Query("a", 20_000, 10_000, 1000); got != nil {
		t.Fatalf("inverted range = %+v, want nil", got)
	}
}

func TestNilSeriesAndCap(t *testing.T) {
	st := New(Options{MaxSeries: 2})
	a, b := st.Series("a"), st.Series("b")
	if a == nil || b == nil {
		t.Fatal("first two series must exist")
	}
	c := st.Series("c")
	if c != nil {
		t.Fatalf("series over cap = %v, want nil", c)
	}
	c.Append(1, 1) // must not panic
	if c.Appended() != 0 || c.Name() != "" {
		t.Fatal("nil series must discard")
	}
	if _, ok := c.Last(); ok {
		t.Fatal("nil series has no last")
	}
	if st.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected())
	}
	st.Remove("a")
	if st.Series("c") == nil {
		t.Fatal("removing a series must free its slot")
	}
}

func TestSized(t *testing.T) {
	o := Sized(64 << 20)
	if o.MaxSeries <= 0 {
		t.Fatalf("MaxSeries = %d", o.MaxSeries)
	}
	small := Sized(1)
	if small.MaxSeries != 1 {
		t.Fatalf("tiny budget MaxSeries = %d, want 1", small.MaxSeries)
	}
	if def := Sized(0); def.MaxSeries != 1024 {
		t.Fatalf("default MaxSeries = %d, want 1024", def.MaxSeries)
	}
}

// preallocated returns a series whose rings are allocated at their full
// capacity up front — the reference a growing series must match.
func preallocated(name string, o Options) *Series {
	s := newSeries(name, o)
	s.raw = make([]sample, o.RawCap)
	s.tiers[0] = make([]Bucket, o.T1Cap)
	s.tiers[1] = make([]Bucket, o.T2Cap)
	return s
}

// ringBytes is the ring capacity a series holds.
func ringBytes(s *Series) int {
	n := cap(s.raw) * int(unsafe.Sizeof(sample{}))
	for _, ring := range s.tiers {
		n += cap(ring) * int(unsafe.Sizeof(Bucket{}))
	}
	return n
}

// TestRingsGrowAsTheyFill: a short-lived series (a churn session's dozen
// samples) holds well under a kilobyte of ring, where a preallocated one
// holds ~62 KB at the defaults. Growing rings are invisible to readers: at
// every length, through and past every ring's wrap, Query, Last and the
// JSONL dump match the preallocated series exactly.
func TestRingsGrowAsTheyFill(t *testing.T) {
	var o Options
	o.fill()
	grown, full := newSeries("s", o), preallocated("s", o)
	for i := 0; i < 12; i++ {
		ts, v := int64(i)*100, float64(i*i)
		grown.Append(ts, v)
		full.Append(ts, v)
	}
	if got := ringBytes(grown); got >= 1<<10 {
		t.Fatalf("12-sample series holds %d B of ring, want < 1 KiB", got)
	}
	if g, f := grown.Query(-1000, 5000, 100), full.Query(-1000, 5000, 100); !reflect.DeepEqual(g, f) {
		t.Fatalf("Query: grown %v, preallocated %v", g, f)
	}

	// Small, non-power-of-two capacities so every ring fills, caps short
	// of a doubling and wraps within the run.
	o = Options{RawCap: 50, T1Cap: 30, T2Cap: 37}
	o.fill()
	grown, full = newSeries("s", o), preallocated("s", o)
	rng := rand.New(rand.NewSource(3))
	ts := int64(0)
	for i := 0; i < 3000; i++ {
		ts += int64(rng.Intn(700))
		v := rng.NormFloat64()
		grown.Append(ts, v)
		full.Append(ts, v)
		if i%7 != 0 && i > 200 {
			continue
		}
		for _, step := range []int64{100, 1000, 10_000} {
			if g, f := grown.Query(0, ts+1, step), full.Query(0, ts+1, step); !reflect.DeepEqual(g, f) {
				t.Fatalf("after %d samples, step %d: grown %v, preallocated %v", i+1, step, g, f)
			}
		}
		gl, gok := grown.Last()
		fl, fok := full.Last()
		if gl != fl || gok != fok {
			t.Fatalf("after %d samples: Last grown %v,%v preallocated %v,%v", i+1, gl, gok, fl, fok)
		}
		var gb, fb bytes.Buffer
		if err := grown.writeJSONL(json.NewEncoder(&gb)); err != nil {
			t.Fatal(err)
		}
		if err := full.writeJSONL(json.NewEncoder(&fb)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), fb.Bytes()) {
			t.Fatalf("after %d samples: JSONL dumps differ", i+1)
		}
	}
	if ringBytes(grown) != ringBytes(full) {
		t.Fatalf("full rings hold %d B, preallocated %d B", ringBytes(grown), ringBytes(full))
	}
	if allocs := testing.AllocsPerRun(100, func() { ts += 500; grown.Append(ts, 1) }); allocs != 0 {
		t.Fatalf("Append on full rings allocates %v times", allocs)
	}
}

func TestLastAndLastTs(t *testing.T) {
	st := New(Options{})
	s := st.Series("a")
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has no last")
	}
	s.Append(5000, 42)
	if v, ok := s.Last(); !ok || v != 42 {
		t.Fatalf("Last = %v %v", v, ok)
	}
	if s.LastTs() != 5000 {
		t.Fatalf("LastTs = %d", s.LastTs())
	}
}

// refAgg aggregates reference samples in [from, to) into one bucket.
func refAgg(samples []sample, from, to int64) Bucket {
	var b Bucket
	b.Ts = from
	for _, sm := range samples {
		if sm.ts >= from && sm.ts < to {
			b.add(sm.v)
		}
	}
	return b
}

// TestPropertyTierBoundsRaw checks the first downsampling invariant:
// every sealed bucket of every tier min/max-bounds (and sum/count-
// matches) exactly the raw samples its window covers.
func TestPropertyTierBoundsRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		opts := Options{RawCap: 32, T1Cap: 16, T2Cap: 4096, T1Width: 1000, T2Width: 10_000}
		st := New(opts)
		s := st.Series("x")
		var ref []sample
		ts := int64(rng.Intn(5000))
		for i := 0; i < 500+rng.Intn(500); i++ {
			ts += int64(100 + rng.Intn(2900))
			v := rng.NormFloat64() * 100
			s.Append(ts, v)
			ref = append(ref, sample{ts: ts, v: v})
		}
		var buf bytes.Buffer
		if err := st.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var p jsonlPoint
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			var w int64
			switch p.Tier {
			case "raw":
				continue
			case "1s":
				w = opts.T1Width
			case "10s":
				w = opts.T2Width
			default:
				t.Fatalf("unknown tier %q", p.Tier)
			}
			want := refAgg(ref, p.Ts, p.Ts+w)
			if want.Count != p.Count || want.Min != p.Min || want.Max != p.Max ||
				math.Abs(want.Sum-p.Sum) > 1e-9 {
				t.Fatalf("trial %d tier %s bucket @%d = {min %v max %v sum %v n %d}, raw says {min %v max %v sum %v n %d}",
					trial, p.Tier, p.Ts, p.Min, p.Max, p.Sum, p.Count,
					want.Min, want.Max, want.Sum, want.Count)
			}
		}
	}
}

// TestPropertyStitchNoGapsNoDuplicates checks the second invariant:
// a query spanning the raw→1s→10s handoffs accounts for every sample
// exactly once — no window is dropped at a seam and none is double
// counted — as long as the coarsest tier has not evicted history. The
// sizing (T1Cap wraps many times, raw wraps constantly, T2Cap never
// wraps) forces both seams into every query.
func TestPropertyStitchNoGapsNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		opts := Options{RawCap: 32, T1Cap: 16, T2Cap: 4096, T1Width: 1000, T2Width: 10_000}
		st := New(opts)
		s := st.Series("x")
		var ref []sample
		var total Bucket
		ts := int64(rng.Intn(3000))
		for i := 0; i < 400+rng.Intn(400); i++ {
			ts += int64(100 + rng.Intn(2900))
			v := rng.NormFloat64() * 50
			s.Append(ts, v)
			ref = append(ref, sample{ts: ts, v: v})
			total.add(v)
		}
		// One bucket over everything: totals must match exactly.
		to := ts + 1
		got := s.Query(0, to, to)
		if len(got) != 1 {
			t.Fatalf("trial %d: full-range buckets = %d, want 1", trial, len(got))
		}
		b := got[0]
		if b.Count != total.Count || b.Min != total.Min || b.Max != total.Max ||
			math.Abs(b.Sum-total.Sum) > 1e-9 {
			t.Fatalf("trial %d: stitched totals {min %v max %v sum %v n %d} != reference {min %v max %v sum %v n %d}",
				trial, b.Min, b.Max, b.Sum, b.Count, total.Min, total.Max, total.Sum, total.Count)
		}
		// Stepped query: output buckets are ordered, non-overlapping,
		// and still account for every sample exactly once.
		for _, step := range []int64{opts.T2Width, 4 * opts.T2Width} {
			from := int64(0)
			parts := s.Query(from, to, step)
			var n uint64
			var sum float64
			last := int64(math.MinInt64)
			for _, p := range parts {
				if p.Ts <= last {
					t.Fatalf("trial %d step %d: buckets out of order (%d after %d)", trial, step, p.Ts, last)
				}
				if (p.Ts-from)%step != 0 {
					t.Fatalf("trial %d: bucket ts %d not step-aligned", trial, p.Ts)
				}
				last = p.Ts
				n += p.Count
				sum += p.Sum
			}
			if n != total.Count || math.Abs(sum-total.Sum) > 1e-9 {
				t.Fatalf("trial %d step %d: stepped stitch n=%d sum=%v, want n=%d sum=%v (gap or duplicate at a tier seam)",
					trial, step, n, sum, total.Count, total.Sum)
			}
		}
		// A recent window served purely from the raw ring must be
		// sample-exact per output bucket, not just in aggregate. Raw's
		// effective start can sit up to one T2 bucket past the oldest
		// retained raw sample (the straddling sealed bucket is emitted
		// whole), so step well clear of that.
		rawOldest := ref[len(ref)-opts.RawCap].ts
		// Align to the step so reference windows line up.
		const step = 1000
		from := rawOldest + (step - rawOldest%step) + opts.T2Width + 2*step
		for _, p := range s.Query(from, to, step) {
			want := refAgg(ref, p.Ts, p.Ts+step)
			if want.Count != p.Count || want.Min != p.Min || want.Max != p.Max {
				t.Fatalf("trial %d: recent bucket @%d = %+v, reference %+v", trial, p.Ts, p, want)
			}
		}
	}
}

// TestSeamAfterT1Eviction forces the 10s tier to serve history the 1s
// tier evicted and checks the straddling 10s bucket does not double
// count with retained 1s buckets.
func TestSeamAfterT1Eviction(t *testing.T) {
	opts := Options{RawCap: 8, T1Cap: 12, T2Cap: 64, T1Width: 1000, T2Width: 10_000}
	st := New(opts)
	s := st.Series("x")
	var total Bucket
	n := 120
	for i := 0; i < n; i++ {
		v := float64(i)
		s.Append(int64(i)*1000, v) // 1 sample per 1s bucket, 2 minutes
		total.add(v)
	}
	got := s.Query(0, int64(n)*1000, int64(n)*1000)
	if len(got) != 1 {
		t.Fatalf("buckets = %d", len(got))
	}
	b := got[0]
	if b.Count != total.Count || b.Sum != total.Sum || b.Min != total.Min || b.Max != total.Max {
		t.Fatalf("stitched = {min %v max %v sum %v n %d}, want {min %v max %v sum %v n %d}",
			b.Min, b.Max, b.Sum, b.Count, total.Min, total.Max, total.Sum, total.Count)
	}
}

func TestWriteJSONLShape(t *testing.T) {
	st := New(Options{})
	s := st.Series("plant.demo")
	for i := 0; i < 25; i++ {
		s.Append(int64(i)*1000, float64(i))
	}
	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	tiers := map[string]int{}
	for _, ln := range lines {
		var p jsonlPoint
		if err := json.Unmarshal([]byte(ln), &p); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if p.Series != "plant.demo" {
			t.Fatalf("series = %q", p.Series)
		}
		tiers[p.Tier]++
	}
	if tiers["raw"] != 25 {
		t.Fatalf("raw lines = %d, want 25", tiers["raw"])
	}
	if tiers["1s"] == 0 || tiers["10s"] == 0 {
		t.Fatalf("tier lines = %v, want some 1s and 10s", tiers)
	}
}

func TestNames(t *testing.T) {
	st := New(Options{})
	st.Series("b")
	st.Series("a")
	names := st.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestNaNDiscarded(t *testing.T) {
	st := New(Options{})
	s := st.Series("a")
	s.Append(0, math.NaN())
	if s.Appended() != 0 {
		t.Fatal("NaN must be discarded")
	}
}

func BenchmarkAppend(b *testing.B) {
	st := New(Options{})
	s := st.Series("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(int64(i), float64(i))
	}
}

func BenchmarkQuery1m(b *testing.B) {
	st := New(Options{})
	s := st.Series("bench")
	for i := 0; i < 10_000; i++ {
		s.Append(int64(i)*100, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Query(940_000, 1_000_000, 1000); len(got) == 0 {
			b.Fatal("empty query")
		}
	}
}
