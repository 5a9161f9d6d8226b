package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric's declaration.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads a runs.jsonl file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// byWorkload groups the untraced records by workload, in file order.
func byWorkload(rs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range rs {
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

// metricValues returns each run's reading of name, gated or not.
func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		} else if v, ok := r.Info[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// judgement compares one metric on one workload across paired runs.
type judgement struct {
	verdict        string
	parent, change spread
	wins, pairs    int
}

// judge applies the small-sandbox rule: a gain needs at least ten pairs, a
// win in nine tenths of them (ties count for neither side), and a median gap
// larger than the parent's interquartile range. A change whose median is
// worse than the parent's by more than bound (a share of the parent's
// median) regressed. Otherwise, a parent spread wider than the bound leaves
// the metric unresolved, unless every change run beats every parent run.
func judge(pv, cv []float64, better string, bound float64) judgement {
	n := min(len(pv), len(cv))
	pv, cv = pv[:n], cv[:n]
	j := judgement{parent: summarize(pv), change: summarize(cv), pairs: n}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	for i := range pv {
		if sign*(cv[i]-pv[i]) > 0 {
			j.wins++
		}
	}
	gain := sign * (j.change.median - j.parent.median)
	allBetter := n > 0 && (sign > 0 && j.change.min > j.parent.max || sign < 0 && j.change.max < j.parent.min)
	switch {
	case n >= 10 && 10*j.wins >= 9*n && gain > j.parent.iqr():
		j.verdict = improved
	case -gain > bound*math.Abs(j.parent.median):
		j.verdict = regressed
	case j.parent.rel(j.parent.iqr()) > bound && !allBetter:
		j.verdict = unresolved
	default:
		j.verdict = unchanged
	}
	return j
}

// compareMain is `dcsbench compare [-benchmark file] parent.jsonl
// change.jsonl`: the i-th untraced run of each workload in one file is
// paired with the i-th in the other, so the two sides should be run
// alternately. It prints one row per workload × end-to-end metric, flags
// any changed results_digest and any rise in failed operations, and fails
// on a regression or a digest change.
func compareMain(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("dcsbench compare", flag.ContinueOnError)
	benchPath := fl.String("benchmark", "BENCHMARK.json", "benchmark declaration with the metrics' directions and bounds")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() != 2 {
		return errors.New("usage: dcsbench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
	}
	bf, err := loadBenchmark(*benchPath)
	if err != nil {
		return err
	}
	parentRuns, err := readRecords(fl.Arg(0))
	if err != nil {
		return err
	}
	changeRuns, err := readRecords(fl.Arg(1))
	if err != nil {
		return err
	}
	pw, cw := byWorkload(parentRuns), byWorkload(changeRuns)
	var bad []string
	fmt.Fprintf(w, "%-9s %-10s %-10s %12s %25s %12s %25s %6s %9s\n",
		"workload", "metric", "verdict", "parent", "[q1, q3]", "change", "[q1, q3]", "wins", "gain")
	for _, wl := range bf.Workloads {
		p, c := pw[wl.Name], cw[wl.Name]
		for _, m := range bf.EndToEnd {
			j := judge(metricValues(p, m.Name), metricValues(c, m.Name), m.Better, m.Bound)
			gain := (j.change.median/j.parent.median - 1) * 100
			if m.Better == "lower" {
				gain = -gain
			}
			fmt.Fprintf(w, "%-9s %-10s %-10s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %2d/%-3d %+8.2f%%\n",
				wl.Name, m.Name, j.verdict, j.parent.median, j.parent.q1, j.parent.q3,
				j.change.median, j.change.q1, j.change.q3, j.wins, j.pairs, gain)
			if j.verdict == regressed {
				bad = append(bad, fmt.Sprintf("%s %s regressed", wl.Name, m.Name))
			}
		}
		digests := map[int64]string{}
		var pFailed, cFailed int64
		for _, r := range p {
			digests[r.Seed] = r.Digest
			pFailed += r.Failed
		}
		for _, r := range c {
			cFailed += r.Failed
			if d, ok := digests[r.Seed]; ok && d != r.Digest {
				bad = append(bad, fmt.Sprintf("%s results_digest changed for seed %d: %s -> %s", wl.Name, r.Seed, d, r.Digest))
			}
		}
		if cFailed > pFailed {
			bad = append(bad, fmt.Sprintf("%s failed operations rose from %d to %d; no gain counts", wl.Name, pFailed, cFailed))
		}
	}
	for _, b := range bad {
		fmt.Fprintln(w, "FLAG:", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d flag(s)", len(bad))
	}
	return nil
}

// summaryMain is `dcsbench summary runs.jsonl`: a Markdown repeatability
// table of every metric and ungated reading per workload (traced runs pooled
// as one ladder) — the median, the interquartile range and the full range as
// shares of the median — and the distinct results digests seen per seed.
func summaryMain(args []string, w io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: dcsbench summary runs.jsonl")
	}
	rs, err := readRecords(args[0])
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    int
	}
	groups := map[key][]record{}
	var keys []key
	for _, r := range rs {
		k := key{r.Workload, r.Trace}
		if r.Trace == 1 {
			k.workload = "ladder" // a traced run is the same ladder whichever workload names it
		}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	fmt.Fprintln(w, "| workload | trace | metric | unit | runs | median | IQR / median | (max − min) / median |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, k := range keys {
		g := groups[k]
		var names []string
		units := map[string]string{}
		for _, r := range g {
			for _, m := range []map[string]value{r.Metrics, r.Info} {
				for name, v := range m {
					if _, ok := units[name]; !ok {
						names = append(names, name)
						units[name] = v.Unit
					}
				}
			}
		}
		sort.Strings(names)
		for _, name := range names {
			s := summarize(metricValues(g, name))
			fmt.Fprintf(w, "| %s | %d | %s | %s | %d | %.6g | %.4f | %.4f |\n",
				k.workload, k.trace, name, units[name], s.n, s.median, s.rel(s.iqr()), s.rel(s.max-s.min))
		}
	}
	fmt.Fprintln(w)
	for _, k := range keys {
		seen := map[int64]map[string]bool{}
		var failed int64
		for _, r := range groups[k] {
			if seen[r.Seed] == nil {
				seen[r.Seed] = map[string]bool{}
			}
			seen[r.Seed][r.Digest] = true
			failed += r.Failed
		}
		unstable := 0
		for _, ds := range seen {
			if len(ds) > 1 {
				unstable++
			}
		}
		fmt.Fprintf(w, "%s trace=%d: %d runs, %d seeds, %d seed(s) with differing results_digest, %d failed operations\n",
			k.workload, k.trace, len(groups[k]), len(seen), unstable, failed)
	}
	return nil
}
