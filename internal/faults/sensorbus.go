package faults

import (
	"math"
	"math/rand"
	"time"

	"dcsprint/internal/cooling"
	"dcsprint/internal/power"
	"dcsprint/internal/tes"
)

// Reading is one sensor sample as the controller sees it.
type Reading struct {
	// Value is the sensed value in the sensor's native unit (degrees
	// Celsius, or a [0, 1] fraction for SoC and TES level).
	Value float64
	// At is the measurement timestamp the sensor claims.
	At time.Duration
	// OK is false when the sensor produced no reading at all (dropout).
	OK bool
}

// Sensors is the telemetry plane the sprinting controller plans on. The
// controller must treat every reading as suspect: values may be stale,
// frozen, noisy, out of bounds or absent.
type Sensors interface {
	// RoomTemp reads the room temperature at simulation time now.
	RoomTemp(now time.Duration) Reading
	// UPSSoC reads the state of charge of the given PDU group's battery.
	UPSSoC(group int, now time.Duration) Reading
	// TESLevel reads the TES tank cold fraction.
	TESLevel(now time.Duration) Reading
}

// window is one active sensor-fault episode.
type window struct {
	kind  Kind
	until time.Duration
	sigma float64
	value float64 // explicit stuck-at value; NaN means capture
	// captured holds the per-channel frozen values (SoC is per group; the
	// scalar sensors use key 0). capturedAt is the frozen timestamp for
	// KindSensorStale.
	captured   map[int]float64
	capturedAt map[int]time.Duration
}

// SensorBus implements Sensors over the physical component models, applying
// any active sensor-fault windows before a reading reaches the controller.
// A bus with no faults applied is a transparent pass-through.
type SensorBus struct {
	tree *power.Tree
	room *cooling.Room
	tank *tes.Tank // nil when the facility has no TES

	rng      *rand.Rand
	roomW    *window
	socW     *window
	tesW     *window
	faultLog int // count of windows applied, for telemetry

	// Optional probes installed by Instrument.
	readProbe   func(channel string)
	windowProbe func(ev Event)
}

// NewSensorBus returns a pass-through bus over the given components. The
// tank may be nil; TES-level readings then report an empty, absent tank.
func NewSensorBus(tree *power.Tree, room *cooling.Room, tank *tes.Tank) *SensorBus {
	// The noise source is fixed-seeded: determinism comes from the
	// schedule, and two runs of the same schedule must match exactly.
	return &SensorBus{tree: tree, room: room, tank: tank, rng: rand.New(rand.NewSource(1))}
}

// Apply activates a sensor-fault window. Non-sensor events are ignored.
func (b *SensorBus) Apply(ev Event) {
	if !ev.Kind.SensorFault() {
		return
	}
	w := &window{
		kind:       ev.Kind,
		until:      ev.At + ev.Dur,
		sigma:      ev.Sigma,
		value:      ev.Value,
		captured:   make(map[int]float64),
		capturedAt: make(map[int]time.Duration),
	}
	switch ev.Sensor {
	case SensorRoomTemp:
		b.roomW = w
	case SensorUPSSoC:
		b.socW = w
	case SensorTESLevel:
		b.tesW = w
	}
	b.faultLog++
	if b.windowProbe != nil {
		b.windowProbe(ev)
	}
}

// FaultsApplied returns how many sensor-fault windows have been activated.
func (b *SensorBus) FaultsApplied() int { return b.faultLog }

// read passes a truth value through the channel's active window, if any.
// key distinguishes sub-channels (the PDU group for SoC).
func (b *SensorBus) read(wp **window, key int, truth float64, now time.Duration) Reading {
	w := *wp
	if w == nil {
		return Reading{Value: truth, At: now, OK: true}
	}
	if now > w.until {
		*wp = nil
		return Reading{Value: truth, At: now, OK: true}
	}
	switch w.kind {
	case KindSensorStale:
		if _, ok := w.captured[key]; !ok {
			w.captured[key] = truth
			w.capturedAt[key] = now
		}
		return Reading{Value: w.captured[key], At: w.capturedAt[key], OK: true}
	case KindSensorDropout:
		return Reading{}
	case KindSensorNoise:
		return Reading{Value: truth + w.sigma*b.rng.NormFloat64(), At: now, OK: true}
	case KindSensorStuck:
		if _, ok := w.captured[key]; !ok {
			if math.IsNaN(w.value) {
				w.captured[key] = truth
			} else {
				w.captured[key] = w.value
			}
		}
		return Reading{Value: w.captured[key], At: now, OK: true}
	}
	return Reading{Value: truth, At: now, OK: true}
}

// RoomTemp implements Sensors.
func (b *SensorBus) RoomTemp(now time.Duration) Reading {
	if b.readProbe != nil {
		b.readProbe("room")
	}
	return b.read(&b.roomW, 0, float64(b.room.Temperature()), now)
}

// UPSSoC implements Sensors.
func (b *SensorBus) UPSSoC(group int, now time.Duration) Reading {
	if b.readProbe != nil {
		b.readProbe("soc")
	}
	if group < 0 || group >= b.tree.Groups() {
		return Reading{}
	}
	u := b.tree.UPS(group)
	return b.read(&b.socW, group, u.SoC(), now)
}

// TESLevel implements Sensors.
func (b *SensorBus) TESLevel(now time.Duration) Reading {
	if b.readProbe != nil {
		b.readProbe("tes")
	}
	if b.tank == nil {
		return Reading{Value: 0, At: now, OK: true}
	}
	return b.read(&b.tesW, 0, b.tank.SoC(), now)
}
