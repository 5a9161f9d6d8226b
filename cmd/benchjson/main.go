// Command benchjson gates `go test -bench` output against absolute bounds,
// so CI can fail a steady-state benchmark run whose numbers cross a floor or
// a ceiling:
//
//	go test -bench 'EngineStep|BatchStep|DeltaSnapshot' -benchmem -benchtime 2s -run '^$' ./internal/sim \
//	  | benchjson -min BatchStep:steps/s:1000000 -max EngineStep:allocs/op:0 -max DeltaSnapshot:delta_frac:0.1
//
// Each gate is <Benchmark>:<unit>:<value>, with the benchmark named without
// its Benchmark prefix and -procs suffix. The unit is any column of the
// result row: ns/op, B/op, allocs/op or a ReportMetric unit. Repeated runs of
// one benchmark (-count N) are gathered, and a gate compares their median
// with its bound: -min fails when the median falls below the value, -max
// when it rises above. A bound must be finite, and a metric with a
// non-finite run (NaN, ±Inf) violates every gate on it.
//
// One verdict line per gate goes to stdout; the command exits non-zero when
// a gate is violated or its benchmark or unit is missing from the input.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Metric holds one unit's samples, one per -count repetition.
type Metric struct {
	Unit string
	Runs []float64
}

// Benchmark is one benchmark function's metrics, in result-row order.
type Benchmark struct {
	Name    string
	Metrics []Metric
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	var mins, maxes []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-min", "--min":
			i++
			if i >= len(args) {
				return fmt.Errorf("-min needs a <Benchmark>:<unit>:<value> argument")
			}
			mins = append(mins, args[i])
		case "-max", "--max":
			i++
			if i >= len(args) {
				return fmt.Errorf("-max needs a <Benchmark>:<unit>:<value> argument")
			}
			maxes = append(maxes, args[i])
		default:
			return fmt.Errorf("unknown argument %q (want -min/-max <Name>:<unit>:<value>)", args[i])
		}
	}
	if len(mins)+len(maxes) == 0 {
		return fmt.Errorf("no gate given (want -min/-max <Name>:<unit>:<value>)")
	}
	benches, err := Parse(in)
	if err != nil {
		return err
	}
	var failed []string
	check := func(spec, dir string) error {
		name, unit, bound, err := parseSpec(spec)
		if err != nil {
			return fmt.Errorf("malformed %s gate %q: %w", dir, spec, err)
		}
		m, ok := findMetric(benches, name, unit)
		if !ok {
			return fmt.Errorf("%s gate %s: benchmark not in current run", dir, spec)
		}
		v := median(m.Runs)
		verdict := "ok"
		if math.IsNaN(v) || (dir == "min" && v < bound) || (dir == "max" && v > bound) {
			verdict = "VIOLATION"
			failed = append(failed, dir+" "+spec)
		}
		fmt.Fprintf(stdout, "benchjson: %-4s %-40s bound %.6g, median %.6g of %d  %s\n",
			dir, name+":"+unit, bound, v, len(m.Runs), verdict)
		return nil
	}
	for _, spec := range mins {
		if err := check(spec, "min"); err != nil {
			return err
		}
	}
	for _, spec := range maxes {
		if err := check(spec, "max"); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gate(s) violated: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// parseSpec splits <Name>:<unit>:<value> around its first and last colons,
// so a unit containing a colon never confuses the bound parse.
func parseSpec(spec string) (name, unit string, bound float64, err error) {
	i, j := strings.Index(spec, ":"), strings.LastIndex(spec, ":")
	if i <= 0 || j == i || j == i+1 {
		return "", "", 0, fmt.Errorf("want <Benchmark>:<unit>:<value>")
	}
	bound, err = strconv.ParseFloat(spec[j+1:], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad bound: %w", err)
	}
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return "", "", 0, fmt.Errorf("bound %v is not finite", bound)
	}
	return spec[:i], spec[i+1 : j], bound, nil
}

// findMetric locates a benchmark's metric by bare name and unit.
func findMetric(benches []Benchmark, name, unit string) (Metric, bool) {
	for _, b := range benches {
		if b.Name != name {
			continue
		}
		for _, m := range b.Metrics {
			if m.Unit == unit {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// median is the middle run, or the mean of the middle two. It is NaN when any
// run is non-finite, so such a metric can never pass a gate.
func median(runs []float64) float64 {
	s := append([]float64(nil), runs...)
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN()
		}
	}
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Parse reads `go test -bench` output and gathers repeated runs of each
// benchmark, in first-seen order.
func Parse(r io.Reader) ([]Benchmark, error) {
	var benches []Benchmark
	index := map[string]int{} // name -> position in benches
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue // goos/pkg headers, PASS, ok, test chatter
		}
		name, samples, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		pos, ok := index[name]
		if !ok {
			pos = len(benches)
			index[name] = pos
			benches = append(benches, Benchmark{Name: name})
		}
		for _, m := range samples {
			merge(&benches[pos], m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return benches, nil
}

// parseBenchLine splits one result row:
//
//	BenchmarkName-8   3   123456 ns/op   120 B/op   3 allocs/op   60.0 trip_s
//
// into the bare name and its one-run metrics, in line order.
func parseBenchLine(line string) (name string, samples []Metric, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields)%2 != 0 {
		return "", nil, fmt.Errorf("malformed benchmark line %q", line)
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, perr := strconv.Atoi(name[i+1:]); perr == nil {
			name = name[:i]
		}
	}
	name = strings.TrimPrefix(name, "Benchmark")
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, fmt.Errorf("iteration count in %q: %w", line, err)
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, verr := strconv.ParseFloat(fields[i], 64)
		if verr != nil {
			return "", nil, fmt.Errorf("metric value %q in %q: %w", fields[i], line, verr)
		}
		samples = append(samples, Metric{Unit: fields[i+1], Runs: []float64{v}})
	}
	return name, samples, nil
}

func merge(b *Benchmark, m Metric) {
	for i := range b.Metrics {
		if b.Metrics[i].Unit == m.Unit {
			b.Metrics[i].Runs = append(b.Metrics[i].Runs, m.Runs...)
			return
		}
	}
	b.Metrics = append(b.Metrics, m)
}
