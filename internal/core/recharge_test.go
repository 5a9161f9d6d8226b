package core

import (
	"fmt"
	"testing"

	"dcsprint/internal/units"
)

// rechargeCheck checks each recharge plan against planRecharge's rules. A
// group's cap, worked out here from its own PDU and battery rather than
// its run's first, is its PDU's spare capped at what fills its battery
// this tick. Then:
//   - every group's recharge, its run's first group's, lies between 0 and
//     its cap;
//   - the recharges, summed member by member in group order, never exceed
//     the DC spare;
//   - when the caps overrun the DC spare the plan is scaled and the TES
//     recharges nothing; otherwise every group takes its cap in full.
//
// It records the first broken rule in err, and counts the plans it saw and
// the scaled ones.
type rechargeCheck struct {
	plans, scaled int
	err           error
}

func (rc *rechargeCheck) check(c *Controller, p *plan, dcSpare units.Watts, secs float64) {
	rc.plans++
	runs, rech := c.buf.ctx.runs, p.upsRecharge
	left, sum := dcSpare, units.Watts(0)
	short := -1 // the first group that takes less than its cap
	fail := func(format string, args ...any) {
		if rc.err == nil {
			rc.err = fmt.Errorf("recharge plan %d: "+format, append([]any{rc.plans}, args...)...)
		}
	}
	for head := 0; head < len(runs); head = runs[head] {
		for g := head; g < runs[head]; g++ {
			b, u := c.tree.Breaker(g), c.tree.UPS(g)
			room := u.TotalEnergy() - u.Stored()
			cap := max(0, min(b.Rated-p.flow.PDULoad(head), room.Over(secs)))
			if rech[head] < 0 || rech[head] > cap {
				fail("group %d recharges %v, outside [0, %v]", g, rech[head], cap)
			}
			left -= cap
			sum += rech[head]
			if short < 0 && rech[head] != cap {
				short = g
			}
		}
	}
	if sum > dcSpare {
		fail("UPS recharge %g W exceeds the DC spare %g W", float64(sum), float64(dcSpare))
	}
	switch {
	case left >= 0 && short >= 0:
		fail("group %d takes %v, less than its cap, though the DC spare covers every cap", short, rech[runHead(runs, short)])
	case left < 0:
		rc.scaled++
		if p.tesRecharge != 0 {
			fail("TES recharges %g W beside scaled UPS shares", float64(p.tesRecharge))
		}
	}
}

// checkRecharges has every controller check each recharge it plans with
// the returned rechargeCheck until the test ends.
func checkRecharges(t testing.TB) *rechargeCheck {
	rc := &rechargeCheck{}
	rechargeHook = rc.check
	t.Cleanup(func() { rechargeHook = nil })
	return rc
}
