package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The steps stream is line-framed NDJSON: one JSON object per line, a
// StepRequest per input line and a StepLine per output line. This file is
// its per-line codec. Encoding appends into a caller-owned buffer and emits
// exactly the bytes encoding/json's Encoder would, so the wire format is
// encoding/json's. Decoding scans the flat objects those encoders emit —
// scalar values, escape-free strings, known keys in any order — and hands
// every other line to json.Unmarshal, which stays the reference semantics.

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

// appendStepLine appends l's NDJSON line, newline included: the embedded
// Decision's fields first, then the line's own, as encoding/json orders an
// embedded struct.
func appendStepLine(b []byte, l *StepLine) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	if d := l.Decision; d != nil {
		if err := finite(d.Demand, d.Delivered, d.Degree, d.Bound, d.ITPowerW, d.CoolingPowerW,
			d.DCLoadW, d.PDULoadW, d.UPSPowerW, d.GenPowerW, d.TESHeatRateW, d.RoomTempC); err != nil {
			return b[:start], err
		}
		b = append(b, `"tick":`...)
		b = strconv.AppendInt(b, int64(d.Tick), 10)
		b = appendFloatField(b, "demand", d.Demand)
		b = appendFloatField(b, "delivered", d.Delivered)
		b = appendFloatField(b, "degree", d.Degree)
		b = appendFloatField(b, "bound", d.Bound)
		b = append(b, `,"phase":`...)
		b = strconv.AppendInt(b, int64(d.Phase), 10)
		b = append(b, `,"active_cores":`...)
		b = strconv.AppendInt(b, int64(d.ActiveCores), 10)
		b = appendFloatField(b, "it_power_w", d.ITPowerW)
		b = appendFloatField(b, "cooling_power_w", d.CoolingPowerW)
		b = appendFloatField(b, "dc_load_w", d.DCLoadW)
		b = appendFloatField(b, "pdu_load_w", d.PDULoadW)
		b = appendFloatField(b, "ups_power_w", d.UPSPowerW)
		b = appendFloatField(b, "gen_power_w", d.GenPowerW)
		b = appendFloatField(b, "tes_heat_rate_w", d.TESHeatRateW)
		b = appendFloatField(b, "room_temp_c", d.RoomTempC)
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

// finite rejects what JSON cannot carry, as encoding/json does.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("service: step line: unsupported value %v", f)
		}
	}
	return nil
}

func appendFloatField(b []byte, k string, f float64) []byte {
	b = append(b, ',', '"')
	b = append(b, k...)
	b = append(b, '"', ':')
	return appendFloat(b, f)
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

// decodeStepRequest decodes one input line into *in as json.Unmarshal
// would into a zero StepRequest.
func decodeStepRequest(line []byte, in *StepRequest) error {
	*in = StepRequest{}
	if scanStepRequest(line, in) {
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

func scanStepRequest(line []byte, in *StepRequest) bool {
	o := flatObject{b: line}
	for o.next() {
		ok := false
		switch string(o.key) {
		case "demand":
			ok = o.setFloat(&in.Demand)
		case "seq":
			switch o.kind {
			case valNull:
				in.Seq, ok = nil, true
			case valNumber:
				if in.Seq == nil {
					in.Seq = new(int64)
				}
				ok = o.setInt64(in.Seq)
			}
		case "rid":
			ok = o.setString(&in.RID)
		}
		if !ok {
			return false
		}
	}
	return o.closed
}

// decodeStepLine decodes one output line into *l as json.Unmarshal would
// into a zero StepLine: any Decision key allocates the Decision, null
// included.
func decodeStepLine(line []byte, l *StepLine) error {
	*l = StepLine{}
	if scanStepLine(line, l) {
		return nil
	}
	*l = StepLine{}
	return malformed(json.Unmarshal(line, l))
}

func scanStepLine(line []byte, l *StepLine) bool {
	o := flatObject{b: line}
	for o.next() {
		var ok bool
		switch string(o.key) {
		case "rid":
			ok = o.setString(&l.RID)
		case "error":
			ok = o.setString(&l.Err)
		case "code":
			ok = o.setInt(&l.Code)
		case "retry_after_ms":
			ok = o.setInt64(&l.RetryAfterMs)
		default:
			if l.Decision == nil {
				l.Decision = new(Decision)
			}
			ok = o.setDecisionField(l.Decision)
		}
		if !ok {
			return false
		}
	}
	return o.closed
}

// setDecisionField stores the current value into the Decision field its
// key names, or reports false for a key Decision does not have.
func (o *flatObject) setDecisionField(d *Decision) bool {
	switch string(o.key) {
	case "tick":
		return o.setInt(&d.Tick)
	case "demand":
		return o.setFloat(&d.Demand)
	case "delivered":
		return o.setFloat(&d.Delivered)
	case "degree":
		return o.setFloat(&d.Degree)
	case "bound":
		return o.setFloat(&d.Bound)
	case "phase":
		return o.setInt(&d.Phase)
	case "active_cores":
		return o.setInt(&d.ActiveCores)
	case "it_power_w":
		return o.setFloat(&d.ITPowerW)
	case "cooling_power_w":
		return o.setFloat(&d.CoolingPowerW)
	case "dc_load_w":
		return o.setFloat(&d.DCLoadW)
	case "pdu_load_w":
		return o.setFloat(&d.PDULoadW)
	case "ups_power_w":
		return o.setFloat(&d.UPSPowerW)
	case "gen_power_w":
		return o.setFloat(&d.GenPowerW)
	case "tes_heat_rate_w":
		return o.setFloat(&d.TESHeatRateW)
	case "room_temp_c":
		return o.setFloat(&d.RoomTempC)
	case "tripped":
		return o.setBool(&d.Tripped)
	case "dead":
		return o.setBool(&d.Dead)
	}
	return false
}

// Value kinds flatObject accepts.
const (
	valNumber = iota + 1
	valString
	valTrue
	valFalse
	valNull
)

// flatObject walks one JSON object whose values are all scalars. next
// yields each key and value; it stops at the closing brace or at anything
// outside the accepted subset — an escaped or invalid-UTF-8 string, a
// nested value, a syntax error — after which closed stays false. Keys and
// string values alias the input.
type flatObject struct {
	b      []byte
	i      int
	fields int
	done   bool // next has stopped
	closed bool // the closing brace ended the input, bar whitespace

	key  []byte
	kind int
	val  []byte // a number's literal or a string's contents
}

func (o *flatObject) ws() {
	for o.i < len(o.b) && isSpace(o.b[o.i]) {
		o.i++
	}
}

// at consumes c if it is next.
func (o *flatObject) at(c byte) bool {
	if o.i < len(o.b) && o.b[o.i] == c {
		o.i++
		return true
	}
	return false
}

func (o *flatObject) next() bool {
	if o.done {
		return false
	}
	o.ws()
	if o.fields == 0 && !o.at('{') {
		return o.stop()
	}
	o.ws()
	if o.at('}') {
		o.ws()
		o.closed = o.i == len(o.b)
		return o.stop()
	}
	if o.fields > 0 && !o.at(',') {
		return o.stop()
	}
	o.fields++
	o.ws()
	var ok bool
	if o.key, ok = o.str(); !ok {
		return o.stop()
	}
	o.ws()
	if !o.at(':') {
		return o.stop()
	}
	o.ws()
	if !o.value() {
		return o.stop()
	}
	return true
}

func (o *flatObject) stop() bool {
	o.done = true
	return false
}

// str consumes an escape-free, valid UTF-8 string and returns its contents.
func (o *flatObject) str() ([]byte, bool) {
	if !o.at('"') {
		return nil, false
	}
	start, ascii := o.i, true
	for ; o.i < len(o.b); o.i++ {
		switch c := o.b[o.i]; {
		case c == '"':
			s := o.b[start:o.i]
			o.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (o *flatObject) value() bool {
	if o.i >= len(o.b) {
		return false
	}
	switch c := o.b[o.i]; {
	case c == '"':
		var ok bool
		o.kind = valString
		o.val, ok = o.str()
		return ok
	case c == '-' || c >= '0' && c <= '9':
		o.kind = valNumber
		return o.number()
	case c == 't':
		o.kind = valTrue
		return o.lit("true")
	case c == 'f':
		o.kind = valFalse
		return o.lit("false")
	case c == 'n':
		o.kind = valNull
		return o.lit("null")
	}
	return false
}

func (o *flatObject) lit(s string) bool {
	if len(o.b)-o.i < len(s) || string(o.b[o.i:o.i+len(s)]) != s {
		return false
	}
	o.i += len(s)
	return true
}

// number consumes a literal of JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (o *flatObject) number() bool {
	start := o.i
	o.at('-')
	if !o.at('0') && !o.digits() {
		return false
	}
	if o.at('.') && !o.digits() {
		return false
	}
	if o.at('e') || o.at('E') {
		if !o.at('+') {
			o.at('-')
		}
		if !o.digits() {
			return false
		}
	}
	o.val = o.b[start:o.i]
	return true
}

// digits consumes one or more decimal digits.
func (o *flatObject) digits() bool {
	start := o.i
	for o.i < len(o.b) && o.b[o.i] >= '0' && o.b[o.i] <= '9' {
		o.i++
	}
	return o.i > start
}

// The setters below store the current value into a field of the given
// type, or report false where json.Unmarshal would report a type error.
// null leaves every non-pointer field untouched, as json.Unmarshal does.

func (o *flatObject) setFloat(dst *float64) bool {
	switch o.kind {
	case valNull:
		return true
	case valNumber:
		f, err := strconv.ParseFloat(string(o.val), 64)
		if err != nil {
			return false
		}
		*dst = f
		return true
	}
	return false
}

func (o *flatObject) setInt64(dst *int64) bool {
	switch o.kind {
	case valNull:
		return true
	case valNumber:
		n, err := strconv.ParseInt(string(o.val), 10, 64)
		if err != nil {
			return false
		}
		*dst = n
		return true
	}
	return false
}

func (o *flatObject) setInt(dst *int) bool {
	switch o.kind {
	case valNull:
		return true
	case valNumber:
		n, err := strconv.ParseInt(string(o.val), 10, strconv.IntSize)
		if err != nil {
			return false
		}
		*dst = int(n)
		return true
	}
	return false
}

func (o *flatObject) setBool(dst *bool) bool {
	switch o.kind {
	case valNull:
		return true
	case valTrue, valFalse:
		*dst = o.kind == valTrue
		return true
	}
	return false
}

func (o *flatObject) setString(dst *string) bool {
	switch o.kind {
	case valNull:
		return true
	case valString:
		*dst = string(o.val)
		return true
	}
	return false
}
