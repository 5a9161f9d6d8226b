package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dcsprint/internal/faults"
	"dcsprint/internal/units"
)

// Supervision limits. A reading older than DefaultStaleLimit is distrusted;
// a reading that stays bit-identical for DefaultFreezeLimit while the
// controller's own commands imply it must be moving is distrusted (the
// stuck-at case a fresh timestamp hides); a distrusted sensor is restored
// after DefaultRecoverTicks consecutive clean readings. While any sensor is
// distrusted the controller ramps its sprinting-degree cap down at
// DefaultDegradeRate per second until the sprint has been aborted, and back
// up at the same rate once trust returns.
const (
	DefaultStaleLimit   = 5 * time.Second
	DefaultFreezeLimit  = 8 * time.Second
	DefaultRecoverTicks = 5
	DefaultDegradeRate  = 0.5
)

// roomDeviationLimit distrusts a room-temperature reading that strays this
// many degrees from the controller's heat-balance dead reckoning.
const roomDeviationLimit = 2.0

// sensorHealth is the per-channel trust state.
type sensorHealth struct {
	name       string
	distrusted bool
	goodTicks  int
	last       float64
	haveLast   bool
	frozenFor  time.Duration
	// needChange marks a distrust episode whose readings were value-suspect
	// (frozen, stale, deviant): the channel is only re-trusted once it
	// produces a value different from refValue. Without this an idle
	// channel — indistinguishable from a frozen one — would oscillate
	// between distrust and restore forever.
	needChange bool
	refValue   float64
}

// sensorView is the supervised telemetry snapshot a tick plans on: every
// distrusted channel already replaced by its conservative worst case
// (battery empty, tank empty, room at the dead-reckoned temperature).
type sensorView struct {
	roomTemp units.Celsius
	soc      []float64
	tesLevel float64
}

// supervisor cross-checks the sensor bus and owns the trust state.
type supervisor struct {
	room sensorHealth
	tes  sensorHealth
	soc  []sensorHealth

	// Expectations recorded by the previous commit: whether the
	// controller's own commands imply each channel must be changing.
	expectRoom bool
	expectTES  bool
	expectSoC  []bool
}

func newSupervisor(groups int) *supervisor {
	s := &supervisor{
		room:      sensorHealth{name: "room-temp"},
		tes:       sensorHealth{name: "tes-level"},
		soc:       make([]sensorHealth, groups),
		expectSoC: make([]bool, groups),
	}
	for g := range s.soc {
		s.soc[g].name = fmt.Sprintf("ups-soc[%d]", g)
	}
	return s
}

// AttachSensors routes the controller's telemetry through the given sensor
// plane and enables the supervision layer: readings are cross-checked for
// staleness, NaN, physical-bound violations, freezes and model deviation;
// distrusted channels are replaced by conservative worst-case estimates and
// the sprinting degree is stepped down (aborting the sprint if trust does
// not return). Attach before the first tick.
func (c *Controller) AttachSensors(s faults.Sensors) {
	c.sensors = s
	n := c.tree.Groups()
	c.sup = newSupervisor(n)
	c.view.soc = make([]float64, n)
	// Planning reads each group's sensed state of charge, which no
	// comparison of the physical state covers: every group is a class of
	// its own.
	for g := range c.buf.ctx.classes {
		c.buf.ctx.classes[g] = g + 1
	}
}

// SetChillerHealth records the chiller plant's remaining heat-absorption
// capacity as a fraction of nominal in [0, 1] — the hook a fault injector
// (or a real plant's alarm panel) drives. The controller plans against the
// degraded capacity and sheds load sooner.
func (c *Controller) SetChillerHealth(frac float64) {
	c.chillerHealth = units.Clamp(frac, 0, 1)
}

// ChillerHealth returns the current chiller capacity fraction.
func (c *Controller) ChillerHealth() float64 { return c.chillerHealth }

// chillerCap returns the heat-absorption capacity of the (possibly
// degraded) chiller plant.
func (c *Controller) chillerCap() units.Watts {
	cap := c.cfg.Cooling.ChillerHeatCapacity()
	if c.chillerHealth < 1 {
		cap = units.Watts(c.chillerHealth * float64(cap))
	}
	return cap
}

// check classifies one reading. It returns the distrust reason, or "" for a
// clean reading, and maintains the channel's freeze bookkeeping. lo and hi
// are the physical plausibility bounds; expect reports whether the
// controller's last committed tick implies the value must be changing;
// model and dev enable the dead-reckoning deviation check when dev > 0.
func (s *supervisor) check(h *sensorHealth, r faults.Reading, now, dt time.Duration,
	lo, hi float64, expect bool, model, dev float64) string {
	if !r.OK {
		return "dropout"
	}
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		return "non-finite value"
	}
	if r.Value < lo || r.Value > hi {
		return fmt.Sprintf("value %.3g outside [%.3g, %.3g]", r.Value, lo, hi)
	}
	if age := now - r.At; age > DefaultStaleLimit {
		return fmt.Sprintf("stale by %v", age)
	}
	if dev > 0 && math.Abs(r.Value-model) > dev {
		return fmt.Sprintf("deviates %.2f from dead reckoning", r.Value-model)
	}
	if h.haveLast && r.Value == h.last {
		if expect {
			h.frozenFor += dt
			if h.frozenFor >= DefaultFreezeLimit {
				return fmt.Sprintf("frozen %v while commanded to change", h.frozenFor)
			}
		}
	} else {
		h.frozenFor = 0
	}
	h.last = r.Value
	h.haveLast = true
	return ""
}

// valueSuspect reports whether a distrust verdict means the reading's value
// itself is untrustworthy while looking plausible — the episodes that must
// not end until the value moves.
func valueSuspect(verdict string) bool {
	return strings.HasPrefix(verdict, "frozen") ||
		strings.HasPrefix(verdict, "stale") ||
		strings.HasPrefix(verdict, "deviates") ||
		strings.HasPrefix(verdict, "actuation")
}

// judge applies a verdict to the channel's trust state, emitting transition
// events through the controller. r is the reading the verdict was formed on.
func (c *Controller) judge(h *sensorHealth, r faults.Reading, verdict string) {
	if verdict != "" {
		h.goodTicks = 0
		if !h.distrusted {
			h.distrusted = true
			if valueSuspect(verdict) && r.OK && !math.IsNaN(r.Value) {
				h.needChange = true
				h.refValue = r.Value
			}
			c.emit(EventSensorDistrusted, fmt.Sprintf("%s: %s", h.name, verdict))
		}
		return
	}
	if h.distrusted {
		// A value-suspect channel that still reads its distrust-time value
		// has shown no evidence of health: an idle battery and a frozen
		// SoC sensor look identical, so only a moving value re-earns trust.
		if h.needChange && r.OK && r.Value == h.refValue {
			h.goodTicks = 0
			return
		}
		h.goodTicks++
		if h.goodTicks >= DefaultRecoverTicks {
			h.distrusted = false
			h.frozenFor = 0
			h.goodTicks = 0
			h.needChange = false
			c.emit(EventSensorRestored, h.name)
		}
	}
}

// supervise reads every sensor through the attached bus, updates trust, and
// builds the tick's planning view with conservative substitutions:
//
//   - room temperature: the controller dead-reckons the room from its own
//     committed heat balance; the planning temperature is the maximum of
//     that estimate and a trusted sensed value, so an optimistic sensor can
//     never relax the thermal guard.
//   - UPS SoC: a distrusted channel plans as empty (no Phase 2 for that
//     group).
//   - TES level: a distrusted channel plans as an empty tank (no Phase 3,
//     chiller carries the load). This also catches a stuck TES valve: the
//     level not dropping while discharge is commanded is indistinguishable
//     from a frozen sensor, and the same substitution is safe for both.
//
// While anything is distrusted the sprinting-degree cap ramps toward 1,
// cleanly aborting an in-flight sprint; it ramps back once trust returns.
func (c *Controller) supervise(dt time.Duration) {
	s := c.sup
	amb := float64(c.cfg.Cooling.Ambient)
	thr := float64(c.cfg.Cooling.Threshold)

	rRoom := c.sensors.RoomTemp(c.now)
	c.judge(&s.room, rRoom, s.check(&s.room, rRoom, c.now, dt, amb-5, thr+25,
		s.expectRoom, float64(c.tempEst), roomDeviationLimit))

	rTES := c.sensors.TESLevel(c.now)
	c.judge(&s.tes, rTES, s.check(&s.tes, rTES, c.now, dt, -0.001, 1.001, s.expectTES, 0, 0))

	for g := range s.soc {
		r := c.sensors.UPSSoC(g, c.now)
		c.judge(&s.soc[g], r, s.check(&s.soc[g], r, c.now, dt, -0.001, 1.001, s.expectSoC[g], 0, 0))
		if s.soc[g].distrusted {
			c.view.soc[g] = 0
		} else {
			c.view.soc[g] = units.Clamp(r.Value, 0, 1)
		}
	}

	planTemp := c.tempEst
	if !s.room.distrusted && rRoom.OK && !math.IsNaN(rRoom.Value) {
		if t := units.Celsius(rRoom.Value); t > planTemp {
			planTemp = t
		}
	}
	c.view.roomTemp = planTemp

	if s.tes.distrusted || c.tank == nil {
		c.view.tesLevel = 0
	} else {
		c.view.tesLevel = units.Clamp(rTES.Value, 0, 1)
	}

	degraded := s.room.distrusted || s.tes.distrusted
	for g := range s.soc {
		degraded = degraded || s.soc[g].distrusted
	}

	// Degraded-mode degree ramp: step the cap down toward an abort while
	// distrusted, back up once every channel is trusted again.
	step := DefaultDegradeRate * dt.Seconds()
	if degraded {
		prev := c.degradeCap
		c.degradeCap -= step
		if c.degradeCap < 1 {
			c.degradeCap = 1
		}
		if prev > 1 && c.degradeCap <= 1 && c.burstActive && c.prevSprinting {
			c.emit(EventSprintAborted, "degraded mode: sensors distrusted, re-entering normal mode")
		}
	} else {
		c.degradeCap += step
		if c.degradeCap > c.maxDegree {
			c.degradeCap = c.maxDegree
		}
	}
}

// noteExpectations records, after a commit, which telemetry channels the
// tick's commands imply must be changing — the cross-check that catches
// stuck-at sensors (and stuck actuators) whose timestamps stay fresh.
func (s *supervisor) noteExpectations(p *plan, actualAbsorbed units.Watts, tempEst, ambient units.Celsius) {
	gap := float64(p.heatGen - actualAbsorbed)
	s.expectRoom = gap > 1 || (gap < -1 && float64(tempEst) > float64(ambient)+1e-9)
	s.expectTES = p.tesAbsorb > 1
	for g, runs := 0, p.flow.Runs; g < len(runs); {
		expect := p.flow.PDUUPS[g] > 1 // read at the run's first group
		for end := runs[g]; g < end; g++ {
			s.expectSoC[g] = expect
		}
	}
}
