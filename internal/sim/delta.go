package sim

import (
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"

	"dcsprint/internal/core"
)

// Delta snapshot format: an incremental checkpoint keyed against a base
// DCSPSNAP frame. A full snapshot is dominated by the telemetry series —
// hundreds of kilobytes after a few thousand ticks — but the series (and the
// controller event list) are strictly append-only over an engine's life, so
// everything a checkpoint needs between two nearby ticks is the series tails
// plus the small plant and controller sections, field-masked so unchanged
// sections cost nothing.
//
//	offset  field
//	0       magic "DCSPDELT" (8 bytes)
//	8       version uint16 (currently 1)
//	10      base CRC32 — the trailer of the base snapshot this delta extends
//	14      base tick uint64
//	22      tick uint64 (the engine's tick at encode time)
//	30      section mask uint32
//	34      masked sections, in mask-bit order
//	len-4   CRC32 (IEEE) of everything before the trailer
//
// ApplyDelta folds a delta back onto its base and re-encodes a full
// snapshot byte-identical to the one Snapshot would have produced at the
// delta's tick — so chains of deltas compose, and every existing consumer of
// full snapshots (Restore, durability journals, wire documents) works on the
// folded output unchanged.

// deltaMagic identifies a dcsprint delta snapshot frame.
const deltaMagic = "DCSPDELT"

// DeltaVersion is the current delta codec version.
const DeltaVersion uint16 = 1

// Section mask bits, applied in this order.
const (
	// deltaScalars: the engine's mutable counters (trip time, sprint
	// ledgers, burst counters). Ratings and step are immutable and stay
	// with the base.
	deltaScalars = 1 << iota
	// deltaSeries: the telemetry series tails — (tick - baseTick) values
	// per series plus as many phase bytes.
	deltaSeries
	// deltaPlant: the full plant section (breakers, UPS, room, tank, gen,
	// chip). Small and almost always changed, but masked for the idle case.
	deltaPlant
	// deltaCtl: the controller scalars and supervision state.
	deltaCtl
	// deltaEvents: controller events appended since the base.
	deltaEvents
)

// ErrDeltaBase reports a delta applied to (or encoded against) a snapshot
// that is not its base: CRC mismatch, tick mismatch, or a base that is not
// an ancestor of the engine's current state.
var ErrDeltaBase = errors.New("sim: delta does not extend this base snapshot")

// DeltaSnapshot serializes the engine's state as a delta against base, a
// full snapshot previously taken from this same run at an earlier (or equal)
// tick. The frame is typically a few percent of a full Snapshot once the run
// is a few hundred ticks deep, because the unchanged telemetry prefix stays
// with the base. Apply with ApplyDelta; like Snapshot, the engine remains
// usable and fault-injected engines refuse.
func (e *Engine) DeltaSnapshot(base []byte) ([]byte, error) {
	if e.finished {
		return nil, ErrFinished
	}
	if e.p.inj != nil {
		return nil, ErrSnapshotFaults
	}
	bimg, baseCRC, err := decodeImage(base, false)
	if err != nil {
		return nil, err
	}
	if bimg.step != e.step {
		return nil, fmt.Errorf("%w: base step %v, engine step %v", ErrDeltaBase, bimg.step, e.step)
	}
	if bimg.ticks > e.i {
		return nil, fmt.Errorf("%w: base at tick %d, engine at %d", ErrDeltaBase, bimg.ticks, e.i)
	}
	if bimg.dcRated != e.dcRated || bimg.pduRated != e.pduRated ||
		len(bimg.pduBreakers) != e.p.tree.Groups() {
		return nil, fmt.Errorf("%w: plant shape differs", ErrDeltaBase)
	}
	cur := e.captureImage()
	if len(cur.ctl.Events) < len(bimg.ctl.Events) {
		return nil, fmt.Errorf("%w: base has %d events, engine only %d",
			ErrDeltaBase, len(bimg.ctl.Events), len(cur.ctl.Events))
	}
	for i, ev := range bimg.ctl.Events {
		if cur.ctl.Events[i] != ev {
			return nil, fmt.Errorf("%w: event %d diverged", ErrDeltaBase, i)
		}
	}

	var mask uint32
	if cur.trippedAt != bimg.trippedAt || cur.sprintSustained != bimg.sprintSustained ||
		cur.excessServed != bimg.excessServed || cur.maxStress != bimg.maxStress ||
		cur.burstTicks != bimg.burstTicks || cur.burstAchieved != bimg.burstAchieved {
		mask |= deltaScalars
	}
	if cur.ticks > bimg.ticks {
		mask |= deltaSeries
	}
	if plantChanged(cur, bimg) {
		mask |= deltaPlant
	}
	if ctlChanged(&cur.ctl, &bimg.ctl) {
		mask |= deltaCtl
	}
	if len(cur.ctl.Events) > len(bimg.ctl.Events) {
		mask |= deltaEvents
	}

	w := &snapWriter{buf: make([]byte, 0, 64+(8*numSeries+1)*(cur.ticks-bimg.ticks)+1024)}
	w.buf = append(w.buf, deltaMagic...)
	w.u16(DeltaVersion)
	w.u32(baseCRC)
	w.u64(uint64(bimg.ticks))
	w.u64(uint64(cur.ticks))
	w.u32(mask)

	if mask&deltaScalars != 0 {
		w.dur(cur.trippedAt)
		w.dur(cur.sprintSustained)
		w.f64(cur.excessServed)
		w.f64(cur.maxStress)
		w.u64(uint64(cur.burstTicks))
		w.f64(cur.burstAchieved)
	}
	if mask&deltaSeries != 0 {
		from := bimg.ticks
		for i := range cur.series {
			w.floats(cur.series[i][from:])
		}
		for _, p := range cur.phase[from:] {
			w.u8(uint8(p))
		}
	}
	if mask&deltaPlant != 0 {
		writePlant(w, cur)
	}
	if mask&deltaCtl != 0 {
		writeCtlScalars(w, &cur.ctl)
		writeSupervision(w, cur.ctl.Supervision)
	}
	if mask&deltaEvents != 0 {
		tail := cur.ctl.Events[len(bimg.ctl.Events):]
		w.u32(uint32(len(tail)))
		for _, ev := range tail {
			writeEvent(w, ev)
		}
	}

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

// plantChanged reports whether any plant state differs between two images.
func plantChanged(a, b *snapImage) bool {
	if a.presence != b.presence || len(a.pduBreakers) != len(b.pduBreakers) ||
		a.dcBreaker != b.dcBreaker || a.room != b.room ||
		a.tank != b.tank || a.gen != b.gen || a.chip != b.chip {
		return true
	}
	for i := range a.pduBreakers {
		if a.pduBreakers[i] != b.pduBreakers[i] || a.upsStates[i] != b.upsStates[i] {
			return true
		}
	}
	return false
}

// ctlChanged reports whether the controller scalars or supervision differ
// (events are tracked separately as an append-only tail).
func ctlChanged(a, b *core.ControllerState) bool {
	ca, cb := *a, *b
	ca.Events, cb.Events = nil, nil
	return !reflect.DeepEqual(ca, cb)
}

// ApplyDelta folds a delta frame onto the base snapshot it was encoded
// against and returns the resulting full snapshot — byte-identical to the
// full Snapshot the engine would have produced at the delta's tick, so the
// output chains as the base of the next delta and restores through the
// ordinary Restore path. The base must be the exact frame the delta names
// (matched by CRC and tick); anything else, and any corruption in either
// frame, returns an error.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	img, baseCRC, err := decodeImage(base, true)
	if err != nil {
		return nil, err
	}
	r, _, err := checkFrame(delta, deltaMagic, DeltaVersion, "delta")
	if err != nil {
		return nil, err
	}
	wantCRC := r.u32("base crc")
	baseTick := r.u64("base tick")
	tick64 := r.u64("tick")
	mask := r.u32("section mask")
	if r.err != nil {
		return nil, r.err
	}
	if wantCRC != baseCRC {
		return nil, fmt.Errorf("%w: delta keyed to base %08x, snapshot is %08x", ErrDeltaBase, wantCRC, baseCRC)
	}
	if baseTick != uint64(img.ticks) {
		return nil, fmt.Errorf("%w: delta base tick %d, snapshot at %d", ErrDeltaBase, baseTick, img.ticks)
	}
	if tick64 > snapMaxTicks || tick64 < baseTick {
		return nil, fmt.Errorf("sim: delta tick %d out of range (base %d)", tick64, baseTick)
	}
	tick := int(tick64)

	if mask&deltaScalars != 0 {
		img.trippedAt = r.dur("tripped at")
		img.sprintSustained = r.dur("sprint sustained")
		img.excessServed = r.f64("excess served")
		img.maxStress = r.f64("max stress")
		img.burstTicks = int(r.u64("burst ticks"))
		img.burstAchieved = r.f64("burst achieved")
	}
	if mask&deltaSeries != 0 {
		n := tick - img.ticks
		for i := range img.series {
			tail := r.floats(n, "series tail")
			img.series[i] = append(img.series[i], tail...)
		}
		if phases := r.take(n, "phase tail"); phases != nil {
			for _, p := range phases {
				img.phase = append(img.phase, int(p))
			}
		}
	} else if tick != img.ticks {
		return nil, fmt.Errorf("sim: delta advances %d ticks without a series tail", tick-img.ticks)
	}
	if mask&deltaPlant != 0 {
		nPDU := len(img.pduBreakers)
		if err := readPlant(r, img); err != nil {
			return nil, err
		}
		if len(img.pduBreakers) != nPDU {
			return nil, fmt.Errorf("%w: delta plant has %d PDUs, base %d", ErrDeltaBase, len(img.pduBreakers), nPDU)
		}
	}
	if mask&deltaCtl != 0 {
		readCtlScalars(r, &img.ctl)
		img.ctl.Supervision, err = readSupervision(r)
		if err != nil {
			return nil, err
		}
	}
	if mask&deltaEvents != 0 {
		tail, err := readEvents(r, r.u32("event tail count"))
		if err != nil {
			return nil, err
		}
		if len(img.ctl.Events)+len(tail) > snapMaxEvents {
			return nil, fmt.Errorf("sim: delta grows event list past cap %d", snapMaxEvents)
		}
		img.ctl.Events = append(img.ctl.Events, tail...)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("sim: delta has %d trailing bytes", len(r.buf))
	}

	img.ticks = tick
	return encodeImage(img), nil
}
