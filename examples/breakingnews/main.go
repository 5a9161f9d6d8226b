// Breaking news: an interactive site gets a sudden, high, short-lived
// burst — the paper's motivating scenario for interactive data centers.
// This example compares the four sprinting-degree strategies on the same
// burst, with and without prediction error, the way an operator would pick
// one.
//
//	go run ./examples/breakingnews
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dcsprint"
)

func main() {
	const (
		seed        = 42
		burstDegree = 3.4 // breaking news: 3.4x the normal peak
	)
	burstDuration := 12 * time.Minute

	story, err := dcsprint.YahooTrace(seed, burstDegree, burstDuration)
	if err != nil {
		log.Fatal(err)
	}
	stats := dcsprint.AnalyzeTrace(story)
	fmt.Printf("breaking-news burst: %.1fx demand, %v over capacity\n\n",
		stats.PeakDemand, stats.AggregateDuration)

	// The Oracle needs perfect knowledge; it is the reference the online
	// strategies are judged against — and it supplies the Heuristic's
	// "best average sprinting degree" estimate.
	oracle, err := dcsprint.OracleSearch(context.Background(), dcsprint.CampaignOptions{},
		dcsprint.Scenario{Name: "oracle", Trace: story})
	if err != nil {
		log.Fatal(err)
	}

	// The Prediction strategy consults an Oracle-built bound table keyed
	// by (equivalent burst duration, burst degree).
	table, err := dcsprint.StandardBoundTable(seed)
	if err != nil {
		log.Fatal(err)
	}

	type entry struct {
		name     string
		strategy dcsprint.Strategy
	}
	perfect := dcsprint.Estimate{
		BurstDuration: stats.AggregateDuration,
		AvgDegree:     oracle.Result.AvgBurstDegree(),
	}
	// The news desk's forecast is 30% short: the story runs longer and
	// hotter than predicted.
	off := perfect.WithError(-0.30)

	entries := []entry{
		{"greedy", dcsprint.Greedy()},
		{"prediction (exact forecast)", dcsprint.Prediction(perfect.BurstDuration, table)},
		{"prediction (-30% forecast)", dcsprint.Prediction(off.BurstDuration, table)},
		{"heuristic (exact estimate)", dcsprint.Heuristic(perfect.AvgDegree, 0.10)},
		{"heuristic (-30% estimate)", dcsprint.Heuristic(off.AvgDegree, 0.10)},
	}

	fmt.Printf("%-30s %12s %12s\n", "strategy", "performance", "sustained")
	fmt.Printf("%-30s %11.3fx %12v  (upper bound %.2f)\n",
		"oracle (offline reference)", oracle.Result.Improvement(),
		oracle.Result.SprintSustained, oracle.Bound)
	for _, e := range entries {
		res, err := dcsprint.Run(dcsprint.Scenario{Name: e.name, Trace: story, Strategy: e.strategy})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-30s %11.3fx %12v\n", e.name, res.Improvement(), res.SprintSustained)
	}

	fmt.Println("\nwhat uncontrolled chip-level sprinting would have done instead:")
	unc, err := dcsprint.Run(dcsprint.Scenario{Name: "uncontrolled", Trace: story, Uncontrolled: true})
	if err != nil {
		log.Fatal(err)
	}
	if unc.TrippedAt >= 0 {
		fmt.Printf("tripped the facility breaker %v into the story — total blackout, %.2fx average\n",
			unc.TrippedAt, unc.Improvement())
	} else {
		fmt.Printf("survived (%.2fx) — this burst was within the breaker budget\n", unc.Improvement())
	}
}
