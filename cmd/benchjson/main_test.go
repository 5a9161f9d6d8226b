package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: dcsprint
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig2TripCurve-8   	     100	    123400 ns/op	     120 B/op	       3 allocs/op	        60.00 trip_s_at_60pct
BenchmarkFig2TripCurve-8   	     100	    123600 ns/op	     120 B/op	       3 allocs/op	        60.00 trip_s_at_60pct
BenchmarkFig2TripCurve-8   	      90	    123200 ns/op	     122 B/op	       3 allocs/op	        60.00 trip_s_at_60pct
BenchmarkSimulationRunMS-8 	      10	 100000000 ns/op	        18000 ticks/s
PASS
ok  	dcsprint	1.234s
`

func TestParseAggregatesRepeatedRuns(t *testing.T) {
	benches, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("benchmarks = %+v", benches)
	}

	fig2 := benches[0]
	if fig2.Name != "Fig2TripCurve" {
		t.Fatalf("name = %q", fig2.Name)
	}
	byUnit := map[string]Metric{}
	for _, m := range fig2.Metrics {
		byUnit[m.Unit] = m
	}
	if ns := byUnit["ns/op"]; !reflect.DeepEqual(ns.Runs, []float64{123400, 123600, 123200}) {
		t.Fatalf("ns/op = %+v", ns)
	}
	if custom := byUnit["trip_s_at_60pct"]; len(custom.Runs) != 3 || custom.Runs[0] != 60 {
		t.Fatalf("custom metric = %+v", custom)
	}
	if _, ok := byUnit["B/op"]; !ok {
		t.Fatal("B/op dropped")
	}

	ms := benches[1]
	if ms.Name != "SimulationRunMS" || ms.Metrics[1].Unit != "ticks/s" {
		t.Fatalf("second bench = %+v", ms)
	}
}

func TestParseRejectsMalformedLine(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkOdd-8 100 123 ns/op extra",
		"BenchmarkNoIters-8 lots ns/op",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-nope"}, strings.NewReader(""), os.Stdout); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestAbsoluteGates(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string // appended to sample
		args []string
		fail bool
		want []string // verdict lines, whitespace collapsed
	}{
		{"min floor held", "", []string{"-min", "SimulationRunMS:ticks/s:10000"}, false,
			[]string{"min SimulationRunMS:ticks/s bound 10000, median 18000 of 1 ok"}},
		{"min floor violated", "", []string{"-min", "SimulationRunMS:ticks/s:50000"}, true,
			[]string{"min SimulationRunMS:ticks/s bound 50000, median 18000 of 1 VIOLATION"}},
		{"max ceiling held", "", []string{"-max", "Fig2TripCurve:allocs/op:3"}, false,
			[]string{"max Fig2TripCurve:allocs/op bound 3, median 3 of 3 ok"}},
		{"max ceiling violated", "", []string{"-max", "Fig2TripCurve:allocs/op:2"}, true,
			[]string{"max Fig2TripCurve:allocs/op bound 2, median 3 of 3 VIOLATION"}},
		{"both, one fails", "", []string{"-min", "SimulationRunMS:ticks/s:10000", "-max", "Fig2TripCurve:B/op:100"}, true,
			[]string{"min SimulationRunMS:ticks/s bound 10000, median 18000 of 1 ok",
				"max Fig2TripCurve:B/op bound 100, median 120 of 3 VIOLATION"}},
		// B/op runs 120, 120, 122: the mean (120.67) would break this bound.
		{"median, not mean", "", []string{"-max", "Fig2TripCurve:B/op:120"}, false,
			[]string{"max Fig2TripCurve:B/op bound 120, median 120 of 3 ok"}},
		{"even run count takes the middle mean",
			"BenchmarkPair-8 10 10 ns/op\nBenchmarkPair-8 10 20 ns/op\n",
			[]string{"-max", "Pair:ns/op:15", "-max", "Pair:ns/op:14.9"}, true,
			[]string{"max Pair:ns/op bound 15, median 15 of 2 ok",
				"max Pair:ns/op bound 14.9, median 15 of 2 VIOLATION"}},
		{"NaN metric", "BenchmarkBroken-8 10 100 ns/op NaN trip_s\n",
			[]string{"-min", "Broken:trip_s:0", "-max", "Broken:trip_s:1"}, true,
			[]string{"min Broken:trip_s bound 0, median NaN of 1 VIOLATION",
				"max Broken:trip_s bound 1, median NaN of 1 VIOLATION"}},
		{"Inf run among finite ones",
			"BenchmarkBroken-8 10 100 ns/op 5 steps/s\nBenchmarkBroken-8 10 100 ns/op +Inf steps/s\nBenchmarkBroken-8 10 100 ns/op 6 steps/s\n",
			[]string{"-min", "Broken:steps/s:1"}, true,
			[]string{"min Broken:steps/s bound 1, median NaN of 3 VIOLATION"}},
	} {
		var sb strings.Builder
		err := run(tc.args, strings.NewReader(sample+tc.in), &sb)
		if tc.fail && (err == nil || !strings.Contains(err.Error(), "violated")) {
			t.Errorf("%s: violation not caught: %v", tc.name, err)
		}
		if !tc.fail && err != nil {
			t.Errorf("%s: in-bounds run failed: %v", tc.name, err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
			got = append(got, strings.Join(strings.Fields(strings.TrimPrefix(line, "benchjson: ")), " "))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: verdicts\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

func TestAbsoluteGateArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no gate", nil, "no gate"},
		{"min missing value", []string{"-min", "SimulationRunMS:ticks/s"}, "malformed"},
		{"min bad value", []string{"-min", "SimulationRunMS:ticks/s:fast"}, "bad bound"},
		{"max missing unit", []string{"-max", "Fig2TripCurve:3"}, "malformed"},
		{"max empty unit", []string{"-max", "Fig2TripCurve::3"}, "malformed"},
		{"max NaN bound", []string{"-max", "Fig2TripCurve:allocs/op:NaN"}, "not finite"},
		{"max Inf bound", []string{"-max", "Fig2TripCurve:allocs/op:Inf"}, "not finite"},
		{"min -Inf bound", []string{"-min", "SimulationRunMS:ticks/s:-Inf"}, "not finite"},
		{"min unknown benchmark", []string{"-min", "Nope:ticks/s:1"}, "not in current run"},
		{"max unknown unit", []string{"-max", "Fig2TripCurve:furlongs:1"}, "not in current run"},
		{"min without spec", []string{"-min"}, "needs"},
	} {
		var sb strings.Builder
		err := run(tc.args, strings.NewReader(sample), &sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
		if strings.Contains(sb.String(), " ok") {
			t.Errorf("%s: a malformed gate printed a passing verdict: %q", tc.name, sb.String())
		}
	}
}
