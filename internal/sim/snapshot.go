package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/chip"
	"dcsprint/internal/cooling"
	"dcsprint/internal/core"
	"dcsprint/internal/genset"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// Snapshot format: a versioned little-endian binary image of everything an
// Engine needs to resume mid-run — tick counters, telemetry accumulators,
// breaker thermal state, UPS charge and wear ledgers, TES level, room
// temperature, generator and chip state, and the controller's dynamic state
// including supervision trust. The scenario itself is NOT in the snapshot;
// Restore takes the same scenario the engine was built from, so the plant is
// reconstructed by the one buildPlant path and the snapshot only carries what
// evolves at runtime.
//
//	offset  field
//	0       magic "DCSPSNAP" (8 bytes)
//	8       version uint16 (currently 1)
//	10      payload (version-specific)
//	len-4   CRC32 (IEEE) of everything before the trailer
//
// Versioning rule: any change to the payload layout bumps the version;
// decoders reject versions they do not know. There is no in-place migration —
// a snapshot is a short-lived checkpoint, not an archival format.
//
// The codec is split into an intermediate snapImage so the full codec and
// the delta codec (delta.go) share one field order: capture → encode on the
// way out, decode → apply on the way in. encodeImage(decodeImage(b)) == b.

// snapMagic identifies a dcsprint engine snapshot.
const snapMagic = "DCSPSNAP"

// SnapshotVersion is the current snapshot codec version.
const SnapshotVersion uint16 = 1

// ErrSnapshotFaults is returned by Snapshot when a fault-injection campaign
// is attached: the injector and sensor bus carry pseudo-random state that is
// not checkpointable, so a restored run could not replay identically.
var ErrSnapshotFaults = errors.New("sim: cannot snapshot an engine with fault injection attached")

// snapMaxTicks bounds the tick count a decoder will allocate for
// (1<<26 ticks = one simulated year at 2 Hz, ~5.5 GB of telemetry — far
// beyond any real run, but small enough to reject absurd length fields
// before allocating).
const snapMaxTicks = 1 << 26

// snapMaxDetail bounds an event-detail string in a snapshot.
const snapMaxDetail = 1 << 12

// snapMaxEvents bounds the controller event list in a snapshot.
const snapMaxEvents = 4096

// numSeries is the number of float64 telemetry series an engine accumulates.
const numSeries = 11

// snapWriter appends little-endian fields to a buffer.
type snapWriter struct{ buf []byte }

func (w *snapWriter) u8(v uint8)          { w.buf = append(w.buf, v) }
func (w *snapWriter) u16(v uint16)        { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *snapWriter) u32(v uint32)        { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64)        { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *snapWriter) i64(v int64)         { w.u64(uint64(v)) }
func (w *snapWriter) f64(v float64)       { w.u64(math.Float64bits(v)) }
func (w *snapWriter) dur(v time.Duration) { w.i64(int64(v)) }
func (w *snapWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *snapWriter) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *snapWriter) floats(s []float64) {
	for _, v := range s {
		w.f64(v)
	}
}

// snapReader consumes little-endian fields with bounds checking; the first
// short read poisons the reader and every subsequent read returns zero.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("sim: snapshot truncated reading %s", what)
	}
}

func (r *snapReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf) < n {
		r.fail(what)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// skip discards n bytes without copying them.
func (r *snapReader) skip(n int, what string) {
	if r.err != nil {
		return
	}
	if n < 0 || len(r.buf) < n {
		r.fail(what)
		return
	}
	r.buf = r.buf[n:]
}

func (r *snapReader) u8(what string) uint8 {
	b := r.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) bool(what string) bool { return r.u8(what) != 0 }

func (r *snapReader) u16(what string) uint16 {
	b := r.take(2, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64(what string) uint64 {
	b := r.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) i64(what string) int64         { return int64(r.u64(what)) }
func (r *snapReader) f64(what string) float64       { return math.Float64frombits(r.u64(what)) }
func (r *snapReader) dur(what string) time.Duration { return time.Duration(r.i64(what)) }

func (r *snapReader) str(what string) string {
	n := int(r.u16(what))
	b := r.take(n, what)
	if b == nil {
		return ""
	}
	return string(b)
}

// floats reads exactly n float64 values, verifying the bytes exist before
// allocating — a corrupt length field must not trigger a huge allocation.
func (r *snapReader) floats(n int, what string) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf) < 8*n {
		r.fail(what)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[8*i:]))
	}
	r.buf = r.buf[8*n:]
	return out
}

// Presence bits for optional plant components.
const (
	snapHasTank = 1 << iota
	snapHasGen
	snapHasChip
)

// snapImage is the decoded form of a snapshot: every runtime field an engine
// checkpoint carries, in memory. The full codec and the delta codec both
// produce and consume images, so the two can never disagree about layout.
type snapImage struct {
	// Engine counters.
	step            time.Duration
	ticks           int
	dcRated         units.Watts
	pduRated        units.Watts
	trippedAt       time.Duration
	sprintSustained time.Duration
	excessServed    float64
	maxStress       float64
	burstTicks      int
	burstAchieved   float64

	// Telemetry accumulators: numSeries float series plus the phase bytes,
	// each exactly ticks values. All series are append-only over an engine's
	// life, which is what makes delta encoding a pure tail.
	series [numSeries][]float64
	phase  []int

	// Plant shape and state.
	presence    uint8
	dcBreaker   breaker.State
	pduBreakers []breaker.State
	upsStates   []ups.State
	room        cooling.State
	tank        tes.State
	gen         genset.State
	chip        chip.State

	// Controller state (events append-only, supervision optional).
	ctl core.ControllerState
}

// seriesOf returns the engine's telemetry accumulators in codec order.
func (e *Engine) seriesOf() [numSeries][]float64 {
	return [numSeries][]float64{
		e.required, e.achieved, e.degree, e.dcLoad, e.pduLoad,
		e.upsPower, e.genPower, e.upsSoC, e.coolPower, e.tesRate, e.roomTemp,
	}
}

// captureImage assembles the engine's current runtime state. The series
// slices alias the live accumulators — the image must be encoded (or
// discarded) before the engine steps again.
func (e *Engine) captureImage() *snapImage {
	img := &snapImage{
		step:            e.step,
		ticks:           e.i,
		dcRated:         e.dcRated,
		pduRated:        e.pduRated,
		trippedAt:       e.trippedAt,
		sprintSustained: e.sprintSustained,
		excessServed:    e.excessServed,
		maxStress:       e.maxStress,
		burstTicks:      e.burstTicks,
		burstAchieved:   e.burstAchieved,
		series:          e.seriesOf(),
		phase:           e.phase,
	}
	if e.p.tank != nil {
		img.presence |= snapHasTank
		img.tank = e.p.tank.State()
	}
	if e.p.gen != nil {
		img.presence |= snapHasGen
		img.gen = e.p.gen.State()
	}
	if e.p.chip != nil {
		img.presence |= snapHasChip
		img.chip = e.p.chip.State()
	}
	img.dcBreaker = e.p.tree.DCBreaker.State()
	img.pduBreakers = make([]breaker.State, e.p.tree.Groups())
	img.upsStates = make([]ups.State, e.p.tree.Groups())
	for i := range img.pduBreakers {
		b, u := e.p.tree.Breaker(i), e.p.tree.UPS(i)
		img.pduBreakers[i], img.upsStates[i] = b.State(), u.State()
	}
	img.room = e.p.room.State()
	img.ctl = e.p.ctl.DumpState()
	return img
}

// writeBreaker / writePlant / writeCtlScalars / writeEvent / writeSupervision
// are the shared encode halves; the delta codec reuses them section by
// section.

func writeBreaker(w *snapWriter, s breaker.State) {
	w.f64(float64(s.Rated))
	w.f64(s.Acc)
	w.bool(s.Tripped)
	w.f64(float64(s.Load))
}

// writePlant encodes the plant section: presence, PDU count, breaker and UPS
// state per PDU, room temperature, and the optional tank/gen/chip state.
func writePlant(w *snapWriter, img *snapImage) {
	w.u8(img.presence)
	w.u32(uint32(len(img.pduBreakers)))
	writeBreaker(w, img.dcBreaker)
	for i := range img.pduBreakers {
		writeBreaker(w, img.pduBreakers[i])
		us := img.upsStates[i]
		w.f64(float64(us.Capacity))
		w.f64(float64(us.MaxDischarge))
		w.f64(float64(us.MaxRecharge))
		w.f64(float64(us.Stored))
		w.f64(float64(us.Discharged))
		w.bool(us.Failed)
	}
	w.f64(float64(img.room.Temp))
	if img.presence&snapHasTank != 0 {
		w.f64(float64(img.tank.Cold))
		w.bool(img.tank.ValveStuck)
	}
	if img.presence&snapHasGen != 0 {
		w.bool(img.gen.Started)
		w.dur(img.gen.SinceStart)
	}
	if img.presence&snapHasChip != 0 {
		w.f64(float64(img.chip.Melted))
	}
}

// writeCtlScalars encodes the controller's scalar state (everything except
// the event list and supervision).
func writeCtlScalars(w *snapWriter, cs *core.ControllerState) {
	w.bool(cs.BurstActive)
	w.dur(cs.SprintTime)
	w.dur(cs.Cooloff)
	w.f64(cs.PeakDemand)
	w.f64(cs.DegreeSum)
	w.i64(int64(cs.DegreeTicks))
	w.f64(float64(cs.BudgetTotal))
	w.bool(cs.TESActive)
	w.bool(cs.Dead)
	w.f64(float64(cs.TempEst))
	w.f64(cs.ChillerHealth)
	w.f64(cs.DegradeCap)
	w.bool(cs.PrevSprinting)
	w.bool(cs.PrevShed)
	w.dur(cs.Now)
	w.i64(int64(cs.PrevPhase))
	w.bool(cs.PrevTES)
	w.bool(cs.PrevGenStart)
	w.bool(cs.PrevGenOnline)
	w.bool(cs.ChipExhausted)
	w.f64(float64(cs.Split.UPS))
	w.f64(float64(cs.Split.TES))
	w.f64(float64(cs.Split.CBOverload))
}

func writeEvent(w *snapWriter, ev core.Event) {
	w.dur(ev.Time)
	w.i64(int64(ev.Kind))
	w.str(ev.Detail)
	w.i64(int64(ev.From))
	w.i64(int64(ev.To))
}

// writeSupervision encodes the optional supervision state, presence flag
// included.
func writeSupervision(w *snapWriter, sup *core.SupervisorState) {
	w.bool(sup != nil)
	if sup == nil {
		return
	}
	writeHealth := func(h core.SensorHealthState) {
		w.bool(h.Distrusted)
		w.i64(int64(h.GoodTicks))
		w.f64(h.Last)
		w.bool(h.HaveLast)
		w.dur(h.FrozenFor)
		w.bool(h.NeedChange)
		w.f64(h.RefValue)
	}
	writeHealth(sup.Room)
	writeHealth(sup.TES)
	w.u32(uint32(len(sup.SoC)))
	for _, h := range sup.SoC {
		writeHealth(h)
	}
	w.bool(sup.ExpectRoom)
	w.bool(sup.ExpectTES)
	w.u32(uint32(len(sup.ExpectSoC)))
	for _, b := range sup.ExpectSoC {
		w.bool(b)
	}
}

// encodeImage serializes an image into the versioned wire form, CRC trailer
// included. It is the single writer for the DCSPSNAP layout.
func encodeImage(img *snapImage) []byte {
	w := &snapWriter{buf: make([]byte, 0, 10+8*numSeries*img.ticks+1024)}
	w.buf = append(w.buf, snapMagic...)
	w.u16(SnapshotVersion)

	// Engine counters.
	w.dur(img.step)
	w.u64(uint64(img.ticks))
	w.f64(float64(img.dcRated))
	w.f64(float64(img.pduRated))
	w.dur(img.trippedAt)
	w.dur(img.sprintSustained)
	w.f64(img.excessServed)
	w.f64(img.maxStress)
	w.u64(uint64(img.burstTicks))
	w.f64(img.burstAchieved)

	// Telemetry accumulators, each exactly ticks values.
	for i := range img.series {
		w.floats(img.series[i])
	}
	for _, p := range img.phase {
		w.u8(uint8(p))
	}

	writePlant(w, img)

	writeCtlScalars(w, &img.ctl)
	w.u32(uint32(len(img.ctl.Events)))
	for _, ev := range img.ctl.Events {
		writeEvent(w, ev)
	}
	writeSupervision(w, img.ctl.Supervision)

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// Snapshot serializes the engine's complete dynamic state. It errors on a
// finished engine and on one with fault injection attached (the injector's
// random state is not checkpointable). The engine remains usable; Snapshot
// does not advance or seal it.
func (e *Engine) Snapshot() ([]byte, error) {
	if e.finished {
		return nil, ErrFinished
	}
	if e.p.inj != nil {
		return nil, ErrSnapshotFaults
	}
	return encodeImage(e.captureImage()), nil
}

// readBreaker / readPlant / readCtlScalars / readEvents / readSupervision
// mirror the write halves with bounds checking.

func readBreaker(r *snapReader, what string) breaker.State {
	return breaker.State{
		Rated:   units.Watts(r.f64(what + " rating")),
		Acc:     r.f64(what + " accumulator"),
		Tripped: r.bool(what + " tripped"),
		Load:    units.Watts(r.f64(what + " load")),
	}
}

// pduWireBytes is the encoded size of one PDU's breaker + UPS state, used to
// reject absurd PDU counts before allocating.
const pduWireBytes = 25 + 49

func readPlant(r *snapReader, img *snapImage) error {
	img.presence = r.u8("presence flags")
	nPDU := int(r.u32("pdu count"))
	if r.err == nil && (nPDU < 0 || len(r.buf) < nPDU*pduWireBytes) {
		return fmt.Errorf("sim: snapshot pdu count %d exceeds payload", nPDU)
	}
	img.dcBreaker = readBreaker(r, "dc breaker")
	if r.err != nil {
		return r.err
	}
	img.pduBreakers = make([]breaker.State, nPDU)
	img.upsStates = make([]ups.State, nPDU)
	for i := 0; i < nPDU; i++ {
		img.pduBreakers[i] = readBreaker(r, "pdu breaker")
		img.upsStates[i] = ups.State{
			Capacity:     units.AmpHours(r.f64("ups capacity")),
			MaxDischarge: units.Watts(r.f64("ups max discharge")),
			MaxRecharge:  units.Watts(r.f64("ups max recharge")),
			Stored:       units.Joules(r.f64("ups stored")),
			Discharged:   units.Joules(r.f64("ups discharged")),
			Failed:       r.bool("ups failed"),
		}
	}
	img.room = cooling.State{Temp: units.Celsius(r.f64("room temperature"))}
	if img.presence&snapHasTank != 0 {
		img.tank = tes.State{
			Cold:       units.Joules(r.f64("tes cold")),
			ValveStuck: r.bool("tes valve"),
		}
	}
	if img.presence&snapHasGen != 0 {
		img.gen = genset.State{
			Started:    r.bool("genset started"),
			SinceStart: r.dur("genset clock"),
		}
	}
	if img.presence&snapHasChip != 0 {
		img.chip = chip.State{Melted: units.Joules(r.f64("chip melted"))}
	}
	return r.err
}

func readCtlScalars(r *snapReader, cs *core.ControllerState) {
	cs.BurstActive = r.bool("burst active")
	cs.SprintTime = r.dur("sprint time")
	cs.Cooloff = r.dur("cooloff")
	cs.PeakDemand = r.f64("peak demand")
	cs.DegreeSum = r.f64("degree sum")
	cs.DegreeTicks = int(r.i64("degree ticks"))
	cs.BudgetTotal = units.Joules(r.f64("budget total"))
	cs.TESActive = r.bool("tes active")
	cs.Dead = r.bool("dead")
	cs.TempEst = units.Celsius(r.f64("temp estimate"))
	cs.ChillerHealth = r.f64("chiller health")
	cs.DegradeCap = r.f64("degrade cap")
	cs.PrevSprinting = r.bool("prev sprinting")
	cs.PrevShed = r.bool("prev shed")
	cs.Now = r.dur("controller clock")
	cs.PrevPhase = int(r.i64("prev phase"))
	cs.PrevTES = r.bool("prev tes")
	cs.PrevGenStart = r.bool("prev gen start")
	cs.PrevGenOnline = r.bool("prev gen online")
	cs.ChipExhausted = r.bool("chip exhausted")
	cs.Split.UPS = units.Joules(r.f64("split ups"))
	cs.Split.TES = units.Joules(r.f64("split tes"))
	cs.Split.CBOverload = units.Joules(r.f64("split cb"))
}

// readEvents reads n controller events after bounds-checking n.
func readEvents(r *snapReader, n uint32) ([]core.Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	if n > snapMaxEvents {
		return nil, fmt.Errorf("sim: snapshot has %d events, cap %d", n, snapMaxEvents)
	}
	out := make([]core.Event, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		var ev core.Event
		ev.Time = r.dur("event time")
		ev.Kind = core.EventKind(r.i64("event kind"))
		if n := int(r.u16("event detail length")); n > snapMaxDetail {
			return nil, fmt.Errorf("sim: snapshot event detail of %d bytes, cap %d", n, snapMaxDetail)
		} else if b := r.take(n, "event detail"); b != nil {
			ev.Detail = string(b)
		}
		ev.From = int(r.i64("event from"))
		ev.To = int(r.i64("event to"))
		out = append(out, ev)
	}
	return out, r.err
}

func readSupervision(r *snapReader) (*core.SupervisorState, error) {
	if !r.bool("supervision flag") {
		return nil, r.err
	}
	readHealth := func(what string) core.SensorHealthState {
		return core.SensorHealthState{
			Distrusted: r.bool(what + " distrusted"),
			GoodTicks:  int(r.i64(what + " good ticks")),
			Last:       r.f64(what + " last"),
			HaveLast:   r.bool(what + " have last"),
			FrozenFor:  r.dur(what + " frozen"),
			NeedChange: r.bool(what + " need change"),
			RefValue:   r.f64(what + " reference"),
		}
	}
	sup := &core.SupervisorState{
		Room: readHealth("room sensor"),
		TES:  readHealth("tes sensor"),
	}
	nSoC := int(r.u32("soc sensor count"))
	if r.err == nil && (nSoC < 0 || len(r.buf) < nSoC) {
		return nil, fmt.Errorf("sim: snapshot soc sensor count %d exceeds payload", nSoC)
	}
	if r.err == nil {
		sup.SoC = make([]core.SensorHealthState, nSoC)
		for i := range sup.SoC {
			sup.SoC[i] = readHealth("soc sensor")
		}
	}
	sup.ExpectRoom = r.bool("expect room")
	sup.ExpectTES = r.bool("expect tes")
	nExpect := int(r.u32("expect soc count"))
	if r.err == nil && (nExpect < 0 || len(r.buf) < nExpect) {
		return nil, fmt.Errorf("sim: snapshot expect count %d exceeds payload", nExpect)
	}
	if r.err == nil {
		sup.ExpectSoC = make([]bool, nExpect)
		for i := range sup.ExpectSoC {
			sup.ExpectSoC[i] = r.bool("expect soc")
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return sup, nil
}

// checkFrame verifies magic, CRC trailer and version, returning the payload
// reader and the frame's CRC value.
func checkFrame(frame []byte, magic string, version uint16, kind string) (*snapReader, uint32, error) {
	if len(frame) < len(magic)+2+4 {
		return nil, 0, fmt.Errorf("sim: %s too short (%d bytes)", kind, len(frame))
	}
	if string(frame[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("sim: bad %s magic", kind)
	}
	body, trailer := frame[:len(frame)-4], frame[len(frame)-4:]
	crc := binary.LittleEndian.Uint32(trailer)
	if want := crc32.ChecksumIEEE(body); crc != want {
		return nil, 0, fmt.Errorf("sim: %s checksum mismatch (%08x != %08x)", kind, crc, want)
	}
	r := &snapReader{buf: body[len(magic):]}
	if v := r.u16("version"); v != version {
		return nil, 0, fmt.Errorf("sim: unsupported %s version %d (have %d)", kind, v, version)
	}
	return r, crc, nil
}

// decodeImage parses a full snapshot into an image, verifying the CRC and
// every structural bound. withSeries false skips the telemetry series (the
// dominant payload) — the delta encoder only needs the scalar sections.
// The snapshot's CRC trailer is returned alongside; it is the key a delta
// frame carries to prove which base it extends.
func decodeImage(snap []byte, withSeries bool) (*snapImage, uint32, error) {
	r, crc, err := checkFrame(snap, snapMagic, SnapshotVersion, "snapshot")
	if err != nil {
		return nil, 0, err
	}
	img := &snapImage{}
	img.step = r.dur("step")
	ticks64 := r.u64("tick count")
	if ticks64 > snapMaxTicks {
		return nil, 0, fmt.Errorf("sim: snapshot tick count %d exceeds limit %d", ticks64, snapMaxTicks)
	}
	img.ticks = int(ticks64)
	img.dcRated = units.Watts(r.f64("dc rating"))
	img.pduRated = units.Watts(r.f64("pdu rating"))
	img.trippedAt = r.dur("tripped at")
	img.sprintSustained = r.dur("sprint sustained")
	img.excessServed = r.f64("excess served")
	img.maxStress = r.f64("max stress")
	img.burstTicks = int(r.u64("burst ticks"))
	img.burstAchieved = r.f64("burst achieved")

	if withSeries {
		for i := range img.series {
			img.series[i] = r.floats(img.ticks, "telemetry series")
		}
		if phases := r.take(img.ticks, "phase series"); phases != nil {
			img.phase = make([]int, img.ticks)
			for i, p := range phases {
				img.phase[i] = int(p)
			}
		}
	} else {
		r.skip((8*numSeries+1)*img.ticks, "telemetry series")
	}

	if err := readPlant(r, img); err != nil {
		return nil, 0, err
	}

	readCtlScalars(r, &img.ctl)
	img.ctl.Events, err = readEvents(r, r.u32("event count"))
	if err != nil {
		return nil, 0, err
	}
	img.ctl.Supervision, err = readSupervision(r)
	if err != nil {
		return nil, 0, err
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if len(r.buf) != 0 {
		return nil, 0, fmt.Errorf("sim: snapshot has %d trailing bytes", len(r.buf))
	}
	return img, crc, nil
}

// applyImage installs a decoded image into a freshly built engine, checking
// that the image fits the engine's scenario. Every SetState validates, so an
// image carrying unphysical values errors here — never a panic, never a
// half-restored engine.
func applyImage(e *Engine, img *snapImage) error {
	if img.step != e.step {
		return fmt.Errorf("sim: snapshot step %v does not match scenario step %v", img.step, e.step)
	}
	if n := e.traceLen(); n > 0 && img.ticks > n {
		return fmt.Errorf("sim: snapshot at tick %d beyond the %d-sample trace", img.ticks, n)
	}
	var wantPresence uint8
	if e.p.tank != nil {
		wantPresence |= snapHasTank
	}
	if e.p.gen != nil {
		wantPresence |= snapHasGen
	}
	if e.p.chip != nil {
		wantPresence |= snapHasChip
	}
	if img.presence != wantPresence {
		return fmt.Errorf("sim: snapshot plant shape %03b does not match scenario %03b", img.presence, wantPresence)
	}
	if len(img.pduBreakers) != e.p.tree.Groups() {
		return fmt.Errorf("sim: snapshot has %d PDUs, scenario builds %d", len(img.pduBreakers), e.p.tree.Groups())
	}
	if img.dcRated <= 0 || img.pduRated <= 0 ||
		math.IsNaN(float64(img.dcRated)) || math.IsNaN(float64(img.pduRated)) {
		return fmt.Errorf("sim: snapshot with non-positive breaker ratings")
	}

	if err := e.p.tree.DCBreaker.SetState(img.dcBreaker); err != nil {
		return err
	}
	for i := range img.pduBreakers {
		b, u := e.p.tree.Own(i)
		if err := b.SetState(img.pduBreakers[i]); err != nil {
			return err
		}
		if err := u.SetState(img.upsStates[i]); err != nil {
			return err
		}
	}
	if err := e.p.room.SetState(img.room); err != nil {
		return err
	}
	if e.p.tank != nil {
		if err := e.p.tank.SetState(img.tank); err != nil {
			return err
		}
	}
	if e.p.gen != nil {
		if err := e.p.gen.SetState(img.gen); err != nil {
			return err
		}
	}
	if e.p.chip != nil {
		if err := e.p.chip.SetState(img.chip); err != nil {
			return err
		}
	}
	if err := e.p.ctl.RestoreState(img.ctl); err != nil {
		return err
	}

	e.i = img.ticks
	e.dcRated = img.dcRated
	e.pduRated = img.pduRated
	e.trippedAt = img.trippedAt
	e.sprintSustained = img.sprintSustained
	e.excessServed = img.excessServed
	e.maxStress = img.maxStress
	e.burstTicks = img.burstTicks
	e.burstAchieved = img.burstAchieved
	e.required = img.series[0]
	e.achieved = img.series[1]
	e.degree = img.series[2]
	e.dcLoad = img.series[3]
	e.pduLoad = img.series[4]
	e.upsPower = img.series[5]
	e.genPower = img.series[6]
	e.upsSoC = img.series[7]
	e.coolPower = img.series[8]
	e.tesRate = img.series[9]
	e.roomTemp = img.series[10]
	e.phase = img.phase
	return nil
}

// Restore rebuilds an engine from a scenario and a snapshot previously taken
// from an engine built on the same scenario. The scenario is normalized and
// the plant reconstructed exactly as New does, then the snapshot's dynamic
// state is applied; the restored engine continues bit-for-bit identically to
// the original. Corrupt or mismatched snapshots return an error — never a
// panic, never a half-restored engine.
func Restore(sc Scenario, snap []byte) (*Engine, error) {
	img, _, err := decodeImage(snap, true)
	if err != nil {
		return nil, err
	}
	if sc.Faults != nil {
		return nil, ErrSnapshotFaults
	}
	e, err := New(sc)
	if err != nil {
		return nil, err
	}
	if err := applyImage(e, img); err != nil {
		return nil, err
	}
	return e, nil
}
