package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/workload"
)

// The reference duty cycle: SyntheticYahoo's 30-minute trace with a burst of
// degree 3.2 from minute 5 for 15 minutes — 5 min idle, the burst, then 10
// min of recovery — one sample per one-second tick. Session (or campaign
// item) i of a run with seed s is fed the samples generated from seed s+i.
const (
	refDegree = 3.2
	refBurst  = 15 * time.Minute
	refTicks  = 1800
)

// refSpec is the reference session: the default plant (sim.DefaultServers
// servers, 200 per PDU, greedy, TES on) behind an unbounded streaming
// session. The daemon never sees the trace, only the demand values the
// client streams.
func refSpec() service.ScenarioSpec { return service.ScenarioSpec{} }

// refDemands returns the reference demand samples for one seed.
func refDemands(seed int64) ([]float64, error) {
	tr, err := workload.SyntheticYahoo(seed, refDegree, refBurst)
	if err != nil {
		return nil, fmt.Errorf("reference trace for seed %d: %w", seed, err)
	}
	if tr.Len() != refTicks {
		return nil, fmt.Errorf("reference trace for seed %d has %d samples, want %d", seed, tr.Len(), refTicks)
	}
	return tr.Samples, nil
}

// refEngine builds a streaming engine on the reference plant.
func refEngine() (*sim.Engine, error) {
	sc, err := refSpec().Build()
	if err != nil {
		return nil, err
	}
	return sim.New(sc)
}

// resim streams demands through a local engine and returns the result a
// daemon session fed the same demands must reproduce exactly.
func resim(demands []float64) (service.ResultView, error) {
	eng, err := refEngine()
	if err != nil {
		return service.ResultView{}, err
	}
	for i, d := range demands {
		if _, err := eng.Step(d); err != nil {
			return service.ResultView{}, fmt.Errorf("re-simulating tick %d: %w", i, err)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		return service.ResultView{}, err
	}
	return service.NewResultView(res), nil
}

// digestSessions is how many results, in seed order, a results_digest
// covers: a fixed prefix every run completes, so runs of one seed and one
// commit print the same digest however much work their window fitted.
const digestSessions = 4

// resultHash fingerprints one result by its exactly-round-tripping JSON.
func resultHash(v service.ResultView) ([32]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// digest folds per-result hashes, in seed order, into one SHA-256.
func digest(hashes [][32]byte) string {
	h := sha256.New()
	for _, x := range hashes {
		h.Write(x[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
