package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the JSON codec for the two hot replies: the steps stream's
// lines and the finish reply. The steps stream is line-framed NDJSON, one
// JSON object per line: a StepRequest per input line and a StepLine per
// output line. The finish reply is one ResultView document. Encoding
// appends into a caller-owned buffer and emits exactly the bytes
// encoding/json's Encoder would, so the wire format is encoding/json's.
// Decoding scans the shapes those encoders emit — scalars, strings,
// number arrays, the known keys in any order — and hands every other
// input to json.Unmarshal, which stays the reference semantics. The
// scanner predicts each object's keys in the order its encoder writes
// them, so a canonical line is walked without scanning a key.
//
// A steps stream's lines repeat most of their float fields from one tick
// to the next, so each end of a stream keeps a memo of the last line's
// float fields: the server's stepEncoder copies the bytes it wrote for an
// unchanged value, and a stepDecoder reuses the value of an unchanged
// literal. A memo is working state for one direction of one stream; snapshots
// never see it, and a new stream starts with an empty one.

// maxStepLine caps one line of the steps stream, newline included. A
// canonical request is under 100 bytes and a decision line under 500.
const maxStepLine = 4 << 10

// errStepLineTooLong reports a line over maxStepLine.
var errStepLineTooLong = fmt.Errorf("service: step line exceeds %d bytes", maxStepLine)

// newLineReader returns the reader readLine expects: its buffer is the
// line cap.
func newLineReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, maxStepLine) }

// readLine returns the next non-blank line without its newline; the slice
// is valid until the next read. A final line without a newline is still a
// line. Blank lines are skipped, as a json.Decoder skips whitespace between
// values.
func readLine(br *bufio.Reader) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		switch {
		case err == nil:
			line = line[:len(line)-1]
		case errors.Is(err, bufio.ErrBufferFull):
			return nil, errStepLineTooLong
		case err == io.EOF && len(line) > 0:
		default:
			return nil, err
		}
		if !blank(line) {
			return line, nil
		}
	}
}

func blank(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// appendStepRequest appends in's NDJSON line, newline included.
func appendStepRequest(b []byte, in *StepRequest) ([]byte, error) {
	if err := finite(in.Demand); err != nil {
		return b, err
	}
	b = append(b, `{"demand":`...)
	b = appendFloat(b, in.Demand)
	if in.Seq != nil {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, *in.Seq, 10)
	}
	if in.RID != "" {
		b = append(b, `,"rid":`...)
		b = appendString(b, in.RID)
	}
	return append(b, '}', '\n'), nil
}

// The keys of a decision or error line, in the order appendStepLine writes
// them: the embedded Decision's fields first, then the line's own, as
// encoding/json orders an embedded struct. A float key's index is also its
// slot in a stream's memo.
const (
	keyTick = iota
	keyDemand
	keyDelivered
	keyDegree
	keyBound
	keyPhase
	keyActiveCores
	keyITPowerW
	keyCoolingPowerW
	keyDCLoadW
	keyPDULoadW
	keyUPSPowerW
	keyGenPowerW
	keyTESHeatRateW
	keyRoomTempC
	keyTripped
	keyDead
	keyRID
	keyError
	keyCode
	keyRetryAfterMs
)

var stepLineKeys = []string{
	keyTick: "tick", keyDemand: "demand", keyDelivered: "delivered", keyDegree: "degree",
	keyBound: "bound", keyPhase: "phase", keyActiveCores: "active_cores", keyITPowerW: "it_power_w",
	keyCoolingPowerW: "cooling_power_w", keyDCLoadW: "dc_load_w", keyPDULoadW: "pdu_load_w",
	keyUPSPowerW: "ups_power_w", keyGenPowerW: "gen_power_w", keyTESHeatRateW: "tes_heat_rate_w",
	keyRoomTempC: "room_temp_c", keyTripped: "tripped", keyDead: "dead", keyRID: "rid",
	keyError: "error", keyCode: "code", keyRetryAfterMs: "retry_after_ms",
}

// The keys of a request line, in the order appendStepRequest writes them.
const (
	reqDemand = iota
	reqSeq
	reqRID
)

var stepRequestKeys = []string{reqDemand: "demand", reqSeq: "seq", reqRID: "rid"}

// memoLit is the longest literal a memo slot holds. appendFloat writes at
// most 25 bytes (-0.0000010000000000000002); a longer literal, which only a
// non-canonical line carries, is parsed every time it comes.
const memoLit = 31

// memoSlot pairs a float field's last value with the literal that carried
// it. Each slot is consistent on its own, so a line that fails halfway
// leaves the memo correct for the lines after it.
type memoSlot struct {
	f   float64
	n   uint8 // the literal's length; 0 while the slot is empty
	lit [memoLit]byte
}

// stepEncoder is the encoder's memo for one steps stream: the bytes
// appendFloat wrote for each float field of the last line. A field whose
// value has the same bits copies them instead of being formatted again.
type stepEncoder struct {
	last [keyRoomTempC + 1]memoSlot
	hits int // fields copied from the memo; only tests read it
}

// stepDecoder is the decoder's memo for one steps stream: each float
// field's last literal and its value. A field whose literal repeats takes
// that value instead of being parsed again. The literals are the input's
// and need not be canonical (1.50), so a decoder's memo never feeds an
// encoder.
type stepDecoder struct {
	last [keyRoomTempC + 1]memoSlot
	hits int // fields taken from the memo; only tests read it
}

// appendStepLine appends l's NDJSON line, newline included.
func (e *stepEncoder) appendStepLine(b []byte, l *StepLine) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	if d := l.Decision; d != nil {
		if err := finite(d.Demand, d.Delivered, d.Degree, d.Bound, d.ITPowerW, d.CoolingPowerW,
			d.DCLoadW, d.PDULoadW, d.UPSPowerW, d.GenPowerW, d.TESHeatRateW, d.RoomTempC); err != nil {
			return b[:start], err
		}
		b = append(b, `"tick":`...)
		b = strconv.AppendInt(b, int64(d.Tick), 10)
		b = e.appendFloatField(b, keyDemand, d.Demand)
		b = e.appendFloatField(b, keyDelivered, d.Delivered)
		b = e.appendFloatField(b, keyDegree, d.Degree)
		b = e.appendFloatField(b, keyBound, d.Bound)
		b = appendIntField(b, "phase", int64(d.Phase))
		b = appendIntField(b, "active_cores", int64(d.ActiveCores))
		b = e.appendFloatField(b, keyITPowerW, d.ITPowerW)
		b = e.appendFloatField(b, keyCoolingPowerW, d.CoolingPowerW)
		b = e.appendFloatField(b, keyDCLoadW, d.DCLoadW)
		b = e.appendFloatField(b, keyPDULoadW, d.PDULoadW)
		b = e.appendFloatField(b, keyUPSPowerW, d.UPSPowerW)
		b = e.appendFloatField(b, keyGenPowerW, d.GenPowerW)
		b = e.appendFloatField(b, keyTESHeatRateW, d.TESHeatRateW)
		b = e.appendFloatField(b, keyRoomTempC, d.RoomTempC)
		if d.Tripped {
			b = append(b, `,"tripped":true`...)
		}
		if d.Dead {
			b = append(b, `,"dead":true`...)
		}
	}
	// key opens an optional field, with a comma unless it is the first.
	key := func(b []byte, k string) []byte {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, k...)
		return append(b, '"', ':')
	}
	if l.RID != "" {
		b = appendString(key(b, "rid"), l.RID)
	}
	if l.Err != "" {
		b = appendString(key(b, "error"), l.Err)
	}
	if l.Code != 0 {
		b = strconv.AppendInt(key(b, "code"), int64(l.Code), 10)
	}
	if l.RetryAfterMs != 0 {
		b = strconv.AppendInt(key(b, "retry_after_ms"), l.RetryAfterMs, 10)
	}
	return append(b, '}', '\n'), nil
}

// errNotFinite is the codec's error for a NaN or Inf, which JSON cannot
// carry, as encoding/json rejects them.
var errNotFinite = errors.New("service: JSON cannot carry the value")

func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w %v", errNotFinite, f)
		}
	}
	return nil
}

// appendResultView appends v's finish reply, newline included: the bytes
// json.Encoder writes for v. A NaN or Inf anywhere in v is an error and
// leaves b as it was.
func appendResultView(b []byte, v *ResultView) ([]byte, error) {
	if err := finite(v.AvgBurstPerformance, v.Improvement, v.MaxBreakerStress, v.ExcessServed,
		v.SplitUPSJ, v.SplitTESJ, v.SplitCBOverloadJ, v.DCRatedW, v.PDURatedW); err != nil {
		return b, err
	}
	start := len(b)
	b = append(b, '{')
	if v.Name != "" {
		b = appendString(append(b, `"name":`...), v.Name)
		b = append(b, ',')
	}
	b = append(b, `"step_ns":`...)
	b = strconv.AppendInt(b, v.StepNs, 10)
	b = appendIntField(b, "ticks", int64(v.Ticks))
	b = appendFloatField(b, "avg_burst_performance", v.AvgBurstPerformance)
	b = appendFloatField(b, "improvement", v.Improvement)
	b = appendIntField(b, "sprint_sustained_ns", v.SprintSustainedNs)
	b = appendIntField(b, "tripped_at_ns", v.TrippedAtNs)
	if v.Dead {
		b = append(b, `,"dead":true`...)
	}
	if v.Aborts != 0 {
		b = appendIntField(b, "aborts", int64(v.Aborts))
	}
	b = appendFloatField(b, "max_breaker_stress", v.MaxBreakerStress)
	b = appendFloatField(b, "excess_served", v.ExcessServed)
	if v.FaultsApplied != 0 {
		b = appendIntField(b, "faults_applied", int64(v.FaultsApplied))
	}
	b = appendFloatField(b, "split_ups_j", v.SplitUPSJ)
	b = appendFloatField(b, "split_tes_j", v.SplitTESJ)
	b = appendFloatField(b, "split_cb_overload_j", v.SplitCBOverloadJ)
	b = appendFloatField(b, "dc_rated_w", v.DCRatedW)
	b = appendFloatField(b, "pdu_rated_w", v.PDURatedW)
	if len(v.Events) > 0 {
		b = append(b, `,"events":[`...)
		for i := range v.Events {
			ev := &v.Events[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"time_ns":`...)
			b = strconv.AppendInt(b, ev.TimeNs, 10)
			b = appendIntField(b, "kind", int64(ev.Kind))
			b = appendString(append(b, `,"name":`...), ev.Name)
			if ev.Detail != "" {
				b = appendString(append(b, `,"detail":`...), ev.Detail)
			}
			if ev.From != 0 {
				b = appendIntField(b, "from", int64(ev.From))
			}
			if ev.To != 0 {
				b = appendIntField(b, "to", int64(ev.To))
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	t := &v.Telemetry
	b = append(b, `,"telemetry":{`...)
	for i, s := range [...]struct {
		key string
		fs  []float64
	}{
		{"required", t.Required}, {"achieved", t.Achieved}, {"degree", t.Degree},
		{"dc_load_w", t.DCLoadW}, {"pdu_load_w", t.PDULoadW}, {"ups_power_w", t.UPSPowerW},
		{"gen_power_w", t.GenPowerW}, {"ups_soc", t.UPSSoC}, {"cooling_power_w", t.CoolingPowerW},
		{"tes_rate_w", t.TESRateW}, {"room_temp_c", t.RoomTempC},
	} {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), s.key...), '"', ':')
		var err error
		if b, err = appendFloats(b, s.fs); err != nil {
			return b[:start], fmt.Errorf("%w (telemetry %s)", err, s.key)
		}
	}
	b = append(b, `,"phase":`...)
	if t.Phase == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range t.Phase {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}', '}', '\n'), nil
}

// appendFloats appends fs as a JSON array, null when fs is nil. A result's
// series are mostly runs of bit-identical values, so each run formats its
// value once: the rest of the run repeats ",v", written by doubling the
// bytes already written.
func appendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := 0; i < len(fs); {
		f := fs[i]
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, finite(f)
		}
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b)
		b = appendFloat(b, f)
		bits, j := math.Float64bits(f), i+1
		for j < len(fs) && math.Float64bits(fs[j]) == bits {
			j++
		}
		if reps := j - i - 1; reps > 0 {
			unit := len(b) - start + 1 // one ",v"
			b = append(b, ',')
			b = append(b, b[start:start+unit-1]...)
			run := len(b) - unit
			for end := run + reps*unit; len(b) < end; {
				b = append(b, b[run:run+min(len(b)-run, end-len(b))]...)
			}
		}
		i = j
	}
	return append(b, ']'), nil
}

// appendFloatField appends float field k of a decision line, copying the
// bytes written for the field last time when f has the same bits.
func (e *stepEncoder) appendFloatField(b []byte, k int, f float64) []byte {
	b = append(b, ',', '"')
	b = append(b, stepLineKeys[k]...)
	b = append(b, '"', ':')
	m := &e.last[k]
	if m.n > 0 && math.Float64bits(m.f) == math.Float64bits(f) {
		e.hits++
		return append(b, m.lit[:m.n]...)
	}
	start := len(b)
	b = appendFloat(b, f)
	if n := len(b) - start; n <= memoLit {
		m.f, m.n = f, uint8(n)
		copy(m.lit[:], b[start:])
	}
	return b
}

func appendFloatField(b []byte, k string, f float64) []byte {
	b = append(b, ',', '"')
	b = append(b, k...)
	b = append(b, '"', ':')
	return appendFloat(b, f)
}

func appendIntField(b []byte, k string, n int64) []byte {
	b = append(b, ',', '"')
	b = append(b, k...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, n, 10)
}

// appendFloat formats a finite f as encoding/json does: the shortest
// representation that parses back exactly, in 'f' form unless the
// magnitude is below 1e-6 or at least 1e21, with e-07 shortened to e-7.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on (the
// Encoder default): <, > and & as \u00XX, the short escapes for \" \\ \b
// \f \n \r \t, other control bytes as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		default:
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeStepRequest decodes one input line of the stream into *in as
// json.Unmarshal would into a zero StepRequest.
func (dec *stepDecoder) decodeStepRequest(line []byte, in *StepRequest) error {
	*in = StepRequest{}
	s := scanner{b: line}
	if s.stepRequest(in, dec) {
		return nil
	}
	*in = StepRequest{}
	return malformed(json.Unmarshal(line, in))
}

func malformed(err error) error {
	if err != nil {
		return fmt.Errorf("service: malformed step line: %w", err)
	}
	return nil
}

func (s *scanner) stepRequest(in *StepRequest, dec *stepDecoder) bool {
	return s.object(stepRequestKeys, func(k int) bool {
		switch k {
		case reqDemand:
			return dec.setFloat(s, k, &in.Demand)
		case reqSeq:
			if s.lit("null") {
				in.Seq = nil
				return true
			}
			if in.Seq == nil {
				in.Seq = new(int64)
			}
			return s.setInt64(in.Seq)
		case reqRID:
			return s.setString(&in.RID)
		}
		return false
	}) && s.end()
}

// decodeStepLine decodes one output line of the stream into *l as
// json.Unmarshal would into a zero StepLine: any Decision key allocates the
// Decision, null included.
func (dec *stepDecoder) decodeStepLine(line []byte, l *StepLine) error {
	*l = StepLine{}
	s := scanner{b: line}
	if s.stepLine(l, dec) {
		return nil
	}
	*l = StepLine{}
	return malformed(json.Unmarshal(line, l))
}

func (s *scanner) stepLine(l *StepLine, dec *stepDecoder) bool {
	return s.object(stepLineKeys, func(k int) bool {
		switch k {
		case keyRID:
			return s.setString(&l.RID)
		case keyError:
			return s.setString(&l.Err)
		case keyCode:
			return s.setInt(&l.Code)
		case keyRetryAfterMs:
			return s.setInt64(&l.RetryAfterMs)
		}
		if l.Decision == nil {
			l.Decision = new(Decision)
		}
		d := l.Decision
		switch k {
		case keyTick:
			return s.setInt(&d.Tick)
		case keyPhase:
			return s.setInt(&d.Phase)
		case keyActiveCores:
			return s.setInt(&d.ActiveCores)
		case keyTripped:
			return s.setBool(&d.Tripped)
		case keyDead:
			return s.setBool(&d.Dead)
		case keyDemand:
			return dec.setFloat(s, k, &d.Demand)
		case keyDelivered:
			return dec.setFloat(s, k, &d.Delivered)
		case keyDegree:
			return dec.setFloat(s, k, &d.Degree)
		case keyBound:
			return dec.setFloat(s, k, &d.Bound)
		case keyITPowerW:
			return dec.setFloat(s, k, &d.ITPowerW)
		case keyCoolingPowerW:
			return dec.setFloat(s, k, &d.CoolingPowerW)
		case keyDCLoadW:
			return dec.setFloat(s, k, &d.DCLoadW)
		case keyPDULoadW:
			return dec.setFloat(s, k, &d.PDULoadW)
		case keyUPSPowerW:
			return dec.setFloat(s, k, &d.UPSPowerW)
		case keyGenPowerW:
			return dec.setFloat(s, k, &d.GenPowerW)
		case keyTESHeatRateW:
			return dec.setFloat(s, k, &d.TESHeatRateW)
		case keyRoomTempC:
			return dec.setFloat(s, k, &d.RoomTempC)
		}
		return false
	}) && s.end()
}

// setFloat is scanner.setFloat for float field k of a stream's line: a
// literal that repeats the one the field carried last takes its value
// without being parsed.
func (dec *stepDecoder) setFloat(s *scanner, k int, dst *float64) bool {
	m := &dec.last[k]
	if s.repeat(m.lit[:m.n]) {
		*dst = m.f
		dec.hits++
		return true
	}
	if s.lit("null") {
		return true
	}
	lit, f, ok := s.float()
	if !ok {
		return false
	}
	*dst = f
	if len(lit) <= memoLit {
		m.f, m.n = f, uint8(len(lit))
		copy(m.lit[:], lit)
	}
	return true
}

// decodeResultView decodes a finish reply into *v as json.Unmarshal would
// into a zero ResultView.
func decodeResultView(data []byte, v *ResultView) error {
	*v = ResultView{}
	if scanResultView(data, v) {
		return nil
	}
	*v = ResultView{}
	return json.Unmarshal(data, v)
}

// The keys of a finish reply's objects, in the order appendResultView
// writes them.
var (
	resultViewKeys = []string{"name", "step_ns", "ticks", "avg_burst_performance", "improvement",
		"sprint_sustained_ns", "tripped_at_ns", "dead", "aborts", "max_breaker_stress", "excess_served",
		"faults_applied", "split_ups_j", "split_tes_j", "split_cb_overload_j", "dc_rated_w", "pdu_rated_w",
		"events", "telemetry"}
	telemetryKeys = []string{"required", "achieved", "degree", "dc_load_w", "pdu_load_w", "ups_power_w",
		"gen_power_w", "ups_soc", "cooling_power_w", "tes_rate_w", "room_temp_c", "phase"}
	eventKeys = []string{"time_ns", "kind", "name", "detail", "from", "to"}
)

// scanResultView accepts the shape appendResultView writes, with its keys
// in any order and any whitespace. A second "events" key is left to
// json.Unmarshal, which decodes it into the first one's elements.
func scanResultView(data []byte, v *ResultView) bool {
	s := scanner{b: data}
	events := false
	return s.object(resultViewKeys, func(k int) bool {
		switch resultViewKeys[k] {
		case "name":
			return s.setString(&v.Name)
		case "step_ns":
			return s.setInt64(&v.StepNs)
		case "ticks":
			return s.setInt(&v.Ticks)
		case "avg_burst_performance":
			return s.setFloat(&v.AvgBurstPerformance)
		case "improvement":
			return s.setFloat(&v.Improvement)
		case "sprint_sustained_ns":
			return s.setInt64(&v.SprintSustainedNs)
		case "tripped_at_ns":
			return s.setInt64(&v.TrippedAtNs)
		case "dead":
			return s.setBool(&v.Dead)
		case "aborts":
			return s.setInt(&v.Aborts)
		case "max_breaker_stress":
			return s.setFloat(&v.MaxBreakerStress)
		case "excess_served":
			return s.setFloat(&v.ExcessServed)
		case "faults_applied":
			return s.setInt(&v.FaultsApplied)
		case "split_ups_j":
			return s.setFloat(&v.SplitUPSJ)
		case "split_tes_j":
			return s.setFloat(&v.SplitTESJ)
		case "split_cb_overload_j":
			return s.setFloat(&v.SplitCBOverloadJ)
		case "dc_rated_w":
			return s.setFloat(&v.DCRatedW)
		case "pdu_rated_w":
			return s.setFloat(&v.PDURatedW)
		case "events":
			if events {
				return false
			}
			events = true
			return s.setEvents(&v.Events)
		case "telemetry":
			return s.lit("null") || s.object(telemetryKeys, func(k int) bool {
				return s.setTelemetryField(telemetryKeys[k], &v.Telemetry)
			})
		}
		return false
	}) && s.end()
}

func (s *scanner) setTelemetryField(key string, t *TelemetryView) bool {
	switch key {
	case "required":
		return setNumbers(s, &t.Required, parseFloat)
	case "achieved":
		return setNumbers(s, &t.Achieved, parseFloat)
	case "degree":
		return setNumbers(s, &t.Degree, parseFloat)
	case "dc_load_w":
		return setNumbers(s, &t.DCLoadW, parseFloat)
	case "pdu_load_w":
		return setNumbers(s, &t.PDULoadW, parseFloat)
	case "ups_power_w":
		return setNumbers(s, &t.UPSPowerW, parseFloat)
	case "gen_power_w":
		return setNumbers(s, &t.GenPowerW, parseFloat)
	case "ups_soc":
		return setNumbers(s, &t.UPSSoC, parseFloat)
	case "cooling_power_w":
		return setNumbers(s, &t.CoolingPowerW, parseFloat)
	case "tes_rate_w":
		return setNumbers(s, &t.TESRateW, parseFloat)
	case "room_temp_c":
		return setNumbers(s, &t.RoomTempC, parseFloat)
	case "phase":
		return setNumbers(s, &t.Phase, parseInt)
	}
	return false
}

// setEvents stores an array of event objects, or null.
func (s *scanner) setEvents(dst *[]EventView) bool {
	if s.lit("null") {
		*dst = nil
		return true
	}
	evs := []EventView{}
	ok := s.array(func() bool {
		evs = append(evs, EventView{})
		ev := &evs[len(evs)-1]
		return s.object(eventKeys, func(k int) bool {
			switch eventKeys[k] {
			case "time_ns":
				return s.setInt64(&ev.TimeNs)
			case "kind":
				return s.setInt(&ev.Kind)
			case "name":
				return s.setString(&ev.Name)
			case "detail":
				return s.setString(&ev.Detail)
			case "from":
				return s.setInt(&ev.From)
			case "to":
				return s.setInt(&ev.To)
			}
			return false
		})
	})
	*dst = evs
	return ok
}

// scanner walks the JSON the codec's encoders write. Its methods consume
// one value each and report false at anything outside that subset — a
// nested value where a scalar belongs, a key with an escape, a string of
// invalid UTF-8, a syntax error — or where json.Unmarshal would report a
// type error. The decoders then hand the input to json.Unmarshal.
type scanner struct {
	b []byte
	i int

	scanned int // keys found by scanning rather than by prediction; only tests read it
}

func (s *scanner) ws() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// at consumes c if it is next.
func (s *scanner) at(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes the literal l if it is next.
func (s *scanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object walks an object whose keys are among keys, calling member with
// each key's index once the cursor is on its value; member consumes the
// value. Any other key, or one with an escape, makes it report false.
//
// keys lists the keys in the order the encoder writes them, and object
// predicts the next key from that order: it looks for it among the keys
// after the last one, with one literal compare each, before it scans a
// string and looks it up. So an object in that order, any of its optional
// keys left out, is walked without scanning a key; reordered, repeated or
// escaped keys still decode through the scan.
func (s *scanner) object(keys []string, member func(k int) bool) bool {
	s.ws()
	if !s.at('{') {
		return false
	}
	s.ws()
	if s.at('}') {
		return true
	}
	for next := 0; ; {
		k := s.key(keys, next)
		if k < 0 {
			return false
		}
		next = k + 1
		s.ws()
		if !s.at(':') {
			return false
		}
		s.ws()
		if !member(k) {
			return false
		}
		s.ws()
		if s.at('}') {
			return true
		}
		if !s.at(',') {
			return false
		}
		s.ws()
	}
}

// key consumes the key at the cursor and returns its index in keys, or -1
// for a key outside keys, an escaped one or no string at all. It first
// tries keys[next:] in order, as object predicts them.
func (s *scanner) key(keys []string, next int) int {
	for k := next; k < len(keys); k++ {
		if s.quoted(keys[k]) {
			return k
		}
	}
	raw, esc, ok := s.str()
	if !ok || esc {
		return -1
	}
	s.scanned++
	for k, key := range keys {
		if string(raw) == key {
			return k
		}
	}
	return -1
}

// quoted consumes the string "key" if it is next.
func (s *scanner) quoted(key string) bool {
	rest := s.b[s.i:]
	n := len(key) + 2
	if len(rest) < n || rest[0] != '"' || rest[n-1] != '"' || string(rest[1:n-1]) != key {
		return false
	}
	s.i += n
	return true
}

// array walks an array, calling elem with the cursor on each element;
// elem consumes it.
func (s *scanner) array(elem func() bool) bool {
	if !s.at('[') {
		return false
	}
	s.ws()
	if s.at(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		s.ws()
		if s.at(']') {
			return true
		}
		if !s.at(',') {
			return false
		}
		s.ws()
	}
}

// str consumes a string of valid UTF-8 and returns its contents as they
// stand in the input; esc reports a backslash among them.
func (s *scanner) str() (raw []byte, esc, ok bool) {
	if !s.at('"') {
		return nil, false, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			raw = s.b[start:s.i]
			s.i++
			return raw, esc, ascii || utf8.Valid(raw)
		case c == '\\':
			// Skip the escaped byte, so \" does not end the string.
			esc = true
			s.i++
		case c < ' ':
			return nil, false, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, false
}

// unquote decodes a string's escapes as json.Unmarshal does. It reports
// false for a malformed escape and for a \u escape of a UTF-16 surrogate,
// which it leaves to json.Unmarshal; the encoder writes neither.
func unquote(raw []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(raw))
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			sb.Write(raw)
			return sb.String(), true
		}
		sb.Write(raw[:i])
		// str leaves a byte after every backslash.
		c := raw[i+1]
		raw = raw[i+2:]
		switch c {
		case '"', '\\', '/':
			sb.WriteByte(c)
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, ok := hex4(raw)
			if !ok || utf16.IsSurrogate(r) {
				return "", false
			}
			sb.WriteRune(r)
			raw = raw[4:]
		default:
			return "", false
		}
	}
}

// hex4 decodes the four hex digits b starts with.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number consumes a literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (s *scanner) number() ([]byte, bool) {
	start := s.i
	s.at('-')
	if !s.at('0') && !s.digits() {
		return nil, false
	}
	if s.at('.') && !s.digits() {
		return nil, false
	}
	if s.at('e') || s.at('E') {
		if !s.at('+') {
			s.at('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	b, i := s.b, s.i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	ok := i > s.i
	s.i = i
	return ok
}

// The setters below consume one value and store it into a field of the
// given type. null leaves every non-pointer, non-slice field untouched, as
// json.Unmarshal does.

func (s *scanner) setFloat(dst *float64) bool {
	if s.lit("null") {
		return true
	}
	_, f, ok := s.float()
	if ok {
		*dst = f
	}
	return ok
}

// float consumes a number and returns its literal and its value.
func (s *scanner) float() ([]byte, float64, bool) {
	lit, ok := s.number()
	if !ok {
		return nil, 0, false
	}
	f, err := parseFloat(lit)
	return lit, f, err == nil
}

func (s *scanner) setInt64(dst *int64) bool {
	if s.lit("null") {
		return true
	}
	lit, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return false
	}
	*dst = n
	return true
}

func (s *scanner) setInt(dst *int) bool {
	if s.lit("null") {
		return true
	}
	lit, ok := s.number()
	if !ok {
		return false
	}
	n, err := parseInt(lit)
	if err != nil {
		return false
	}
	*dst = n
	return true
}

func (s *scanner) setBool(dst *bool) bool {
	switch {
	case s.lit("null"):
	case s.lit("true"):
		*dst = true
	case s.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

func (s *scanner) setString(dst *string) bool {
	if s.lit("null") {
		return true
	}
	raw, esc, ok := s.str()
	switch {
	case !ok:
		return false
	case esc:
		*dst, ok = unquote(raw)
		return ok
	}
	*dst = string(raw)
	return true
}

// setNumbers consumes an array of numbers, or null, and stores it as
// json.Unmarshal stores one into a nil slice: null leaves nil, [] makes an
// empty slice. A literal that repeats the one before it reuses its value
// instead of scanning and parsing it again; a result's series are mostly
// such runs.
func setNumbers[T float64 | int](s *scanner, dst *[]T, parse func([]byte) (T, error)) bool {
	if s.lit("null") {
		*dst = nil
		return true
	}
	if !s.at('[') {
		return false
	}
	out := make([]T, 0, s.elems())
	s.ws()
	if s.at(']') {
		*dst = out
		return true
	}
	var (
		prev []byte
		x    T
	)
	for {
		if !s.repeat(prev) {
			lit, ok := s.number()
			if !ok {
				return false
			}
			var err error
			if x, err = parse(lit); err != nil {
				return false
			}
			prev = lit
		}
		out = append(out, x)
		s.ws()
		if s.at(']') {
			*dst = out
			return true
		}
		if !s.at(',') {
			return false
		}
		s.ws()
	}
}

// repeat consumes the number literal prev if it is next, whole: followed
// by a byte that cannot continue a number, or by nothing.
func (s *scanner) repeat(prev []byte) bool {
	rest := s.b[s.i:]
	if len(prev) == 0 || !bytes.HasPrefix(rest, prev) || len(rest) > len(prev) && numberByte(rest[len(prev)]) {
		return false
	}
	s.i += len(prev)
	return true
}

// numberByte reports whether c can continue a number literal.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// elems counts the elements of the array at the cursor, if they are
// numbers: one more than the commas before the first ']'.
func (s *scanner) elems() int {
	rest := s.b[s.i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	return bytes.Count(rest[:end], []byte{','}) + 1
}

func parseFloat(lit []byte) (float64, error) { return strconv.ParseFloat(string(lit), 64) }

func parseInt(lit []byte) (int, error) {
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err
}
