package core

import (
	"fmt"
	"strconv"
	"time"

	"dcsprint/internal/units"
)

// EventKind classifies a controller event.
type EventKind int

// Controller event kinds, in rough lifecycle order.
const (
	// EventBurstStarted marks the first over-capacity demand of an event.
	EventBurstStarted EventKind = iota + 1
	// EventBurstEnded marks the cool-off completing.
	EventBurstEnded
	// EventPhaseChanged marks any controller phase transition.
	EventPhaseChanged
	// EventTESActivated and EventTESExhausted bracket Phase 3.
	EventTESActivated
	EventTESExhausted
	// EventGeneratorStarted, EventGeneratorOnline and
	// EventGeneratorStopped track the genset lifecycle.
	EventGeneratorStarted
	EventGeneratorOnline
	EventGeneratorStopped
	// EventChipPCMExhausted marks the §IV chip-level prerequisite ending
	// the sprint.
	EventChipPCMExhausted
	// EventBreakerTripped and EventBrownout are terminal failures.
	EventBreakerTripped
	EventBrownout
	// EventOverheated marks the room reaching the shutdown threshold — an
	// automatic IT shutdown, also terminal.
	EventOverheated
	// EventSensorDistrusted and EventSensorRestored bracket a supervision
	// episode on one telemetry channel.
	EventSensorDistrusted
	EventSensorRestored
	// EventSprintAborted marks the degraded-mode ramp reaching degree 1
	// mid-burst: the controller gave up sprinting and re-entered normal
	// mode because it no longer trusts its telemetry.
	EventSprintAborted
	// EventThermalShed marks the planner shedding normal-mode load because
	// the (possibly degraded) plant cannot absorb even the normal heat.
	EventThermalShed

	// eventKindEnd is one past the last kind; tests iterate up to it so a
	// newly added kind cannot ship without a String() name and a trace
	// mapping.
	eventKindEnd
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventBurstStarted:
		return "burst-started"
	case EventBurstEnded:
		return "burst-ended"
	case EventPhaseChanged:
		return "phase-changed"
	case EventTESActivated:
		return "tes-activated"
	case EventTESExhausted:
		return "tes-exhausted"
	case EventGeneratorStarted:
		return "generator-started"
	case EventGeneratorOnline:
		return "generator-online"
	case EventGeneratorStopped:
		return "generator-stopped"
	case EventChipPCMExhausted:
		return "chip-pcm-exhausted"
	case EventBreakerTripped:
		return "breaker-tripped"
	case EventBrownout:
		return "brownout"
	case EventOverheated:
		return "overheated"
	case EventSensorDistrusted:
		return "sensor-distrusted"
	case EventSensorRestored:
		return "sensor-restored"
	case EventSprintAborted:
		return "sprint-aborted"
	case EventThermalShed:
		return "thermal-shed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one recorded controller transition.
type Event struct {
	// Time is the simulation time of the transition.
	Time time.Duration
	// Kind classifies it.
	Kind EventKind
	// Detail is a short human-readable annotation.
	Detail string
	// From and To carry the phase indices for EventPhaseChanged; both are
	// zero for every other kind.
	From, To int
}

// String implements fmt.Stringer.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%v %v", e.Time, e.Kind)
	}
	return fmt.Sprintf("%v %v: %s", e.Time, e.Kind, e.Detail)
}

// maxEvents bounds the log so a pathological run cannot grow unboundedly.
const maxEvents = 4096

// emit appends an event, dropping silently once the log is full.
func (c *Controller) emit(kind EventKind, detail string) {
	c.emitEvent(Event{Time: c.now, Kind: kind, Detail: detail})
}

// phaseDetails pre-formats the phase-transition messages (phases run 0-3):
// a duty-cycling session crosses a phase edge every few ticks, and fmt on
// that edge shows up in batched-stepping profiles.
var phaseDetails = func() (t [4][4]string) {
	for from := range t {
		for to := range t[from] {
			t[from][to] = fmt.Sprintf("phase %d -> %d", from, to)
		}
	}
	return t
}()

// phaseDetail formats a phase-transition message, from the precomputed
// table when possible.
func phaseDetail(from, to int) string {
	if from >= 0 && from < len(phaseDetails) && to >= 0 && to < len(phaseDetails) {
		return phaseDetails[from][to]
	}
	return fmt.Sprintf("phase %d -> %d", from, to)
}

// burstDetail formats the burst-started message without a fmt verb parse —
// equivalent to fmt.Sprintf("demand %.2fx, budget %v", demand, budget).
func burstDetail(demand float64, budget units.Joules) string {
	b := make([]byte, 0, 48)
	b = append(b, "demand "...)
	b = strconv.AppendFloat(b, demand, 'f', 2, 64)
	b = append(b, "x, budget "...)
	b = append(b, budget.String()...)
	return string(b)
}

// emitEvent records a fully formed event; events past the log cap are
// dropped.
func (c *Controller) emitEvent(e Event) {
	if len(c.events) >= maxEvents {
		return
	}
	c.events = append(c.events, e)
}

// Events returns the transitions recorded so far (shared slice; do not
// mutate).
func (c *Controller) Events() []Event { return c.events }
