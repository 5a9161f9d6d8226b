package dcsprint_test

import (
	"context"
	"fmt"
	"time"

	"dcsprint"
)

// mustTrace unwraps a trace-generator result; examples have no testing.T,
// so a generator failure panics (failing the example).
func mustTrace(s *dcsprint.Series, err error) *dcsprint.Series {
	if err != nil {
		panic(err)
	}
	return s
}

// The minimal end-to-end run: a burst, the controller, the headline metric.
func Example() {
	burst := mustTrace(dcsprint.YahooTrace(7, 3.2, 15*time.Minute))
	res, err := dcsprint.Run(dcsprint.Scenario{Name: "example", Trace: burst})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("tripped: %v\n", res.TrippedAt >= 0)
	fmt.Printf("sprinting helped: %v\n", res.Improvement() > 1.5)
	// Output:
	// tripped: false
	// sprinting helped: true
}

// Comparing strategies on the same burst.
func ExampleOracleSearch() {
	burst := mustTrace(dcsprint.YahooTrace(7, 3.4, 15*time.Minute))
	oracle, err := dcsprint.OracleSearch(context.Background(), dcsprint.CampaignOptions{},
		dcsprint.Scenario{Trace: burst})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	greedy, err := dcsprint.Run(dcsprint.Scenario{Trace: burst})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("oracle constrains the degree: %v\n", oracle.Bound < 4)
	fmt.Printf("oracle beats greedy on a long burst: %v\n",
		oracle.Result.Improvement() > greedy.Improvement())
	// Output:
	// oracle constrains the degree: true
	// oracle beats greedy on a long burst: true
}

// The §V-D economics: dark cores pay for themselves.
func ExampleEconomicModel() {
	m := dcsprint.DefaultEconomics()
	fmt.Printf("monthly cost of 4x provisioning: $%.0f\n", m.MonthlyCoreCost(4))
	fmt.Printf("monthly churn loss avoided: $%.0f\n", m.MonthlyChurnLoss())
	// Output:
	// monthly cost of 4x provisioning: $468750
	// monthly churn loss avoided: $682560
}

// Battery-lifetime accounting for a sprinting pattern (§IV-B).
func ExampleBatteryChemistry() {
	lfp := dcsprint.LFPChemistry()
	fmt.Printf("10 full discharges/month lifetime-neutral: %v\n", lfp.LifetimeNeutral(10, 1.0))
	fmt.Printf("200 shallow (26%%) discharges/month lifetime-neutral: %v\n", lfp.LifetimeNeutral(200, 0.26))
	// Output:
	// 10 full discharges/month lifetime-neutral: true
	// 200 shallow (26%) discharges/month lifetime-neutral: true
}

// Injecting a grid curtailment and riding it with stored energy.
func ExampleSupplyDip() {
	busy := mustTrace(dcsprint.YahooTrace(7, 1, 0))
	dip := mustTrace(dcsprint.SupplyDip(busy.Duration(), busy.Step, 10*time.Minute, 5*time.Minute, 0.55))
	res, err := dcsprint.Run(dcsprint.Scenario{Trace: busy, Supply: dip})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	served := true
	for i := range res.Telemetry.Achieved.Samples {
		if res.Telemetry.Achieved.Samples[i] < res.Telemetry.Required.Samples[i]-1e-9 {
			served = false
		}
	}
	fmt.Printf("demand fully served through the dip: %v\n", served)
	// Output:
	// demand fully served through the dip: true
}
