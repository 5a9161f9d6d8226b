package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/chaosnet"
	"dcsprint/internal/faults"
	"dcsprint/internal/sim"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// encoderLine is the reference: what json.Encoder writes for v.
func encoderLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// wireFloats are the magnitudes where encoding/json's float format
// switches, plus the values a plant reports.
var wireFloats = []float64{0, math.Copysign(0, -1), 1, -1, 1.5, 3.2, 1e-6, 9.99e-7, 1e-7, -1e-7,
	1.2345e-9, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64, 123456.789, 2.5e6, 24.999999999}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return wireFloats[rng.Intn(len(wireFloats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 2:
		return float64(rng.Intn(2_000_000)) / 8
	default:
		for {
			f := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

// randWireString mixes plain ids with everything encoding/json escapes:
// quotes, HTML characters, control bytes, invalid UTF-8, U+2028/U+2029.
func randWireString(rng *rand.Rand) string {
	pieces := []string{"", "c1.42", "service: session queue full", `"`, `\`, "<", ">", "&",
		"\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f", "é", "日本", "\u2028", "\u2029",
		"\xff", "\xe2\x82", "\ufffd", "😀", "seq 3, next tick 4"}
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

func randStepLine(rng *rand.Rand) StepLine {
	var l StepLine
	if rng.Intn(4) > 0 {
		l.Decision = &Decision{
			Tick: rng.Intn(1 << 20), Demand: randFloat(rng), Delivered: randFloat(rng),
			Degree: randFloat(rng), Bound: randFloat(rng), Phase: rng.Intn(4),
			ActiveCores: rng.Intn(1 << 16), ITPowerW: randFloat(rng), CoolingPowerW: randFloat(rng),
			DCLoadW: randFloat(rng), PDULoadW: randFloat(rng), UPSPowerW: randFloat(rng),
			GenPowerW: randFloat(rng), TESHeatRateW: randFloat(rng), RoomTempC: randFloat(rng),
			Tripped: rng.Intn(3) == 0, Dead: rng.Intn(3) == 0,
		}
	}
	if rng.Intn(2) == 0 {
		l.RID = randWireString(rng)
	}
	if l.Decision == nil || rng.Intn(5) == 0 {
		l.Err = randWireString(rng)
		l.Code = []int{0, 400, 404, 409, 429, 503}[rng.Intn(6)]
		l.RetryAfterMs = []int64{0, 5, 100, 500, -1}[rng.Intn(5)]
	}
	return l
}

// decisionFloats returns pointers to d's float fields, in wire order.
func decisionFloats(d *Decision) [12]*float64 {
	return [...]*float64{&d.Demand, &d.Delivered, &d.Degree, &d.Bound, &d.ITPowerW, &d.CoolingPowerW,
		&d.DCLoadW, &d.PDULoadW, &d.UPSPowerW, &d.GenPowerW, &d.TESHeatRateW, &d.RoomTempC}
}

// decodePredicted decodes a line the codec wrote through dec, failing
// unless it takes the predicted path: every key matched in encoder order,
// no key scanned and no fallback to json.Unmarshal. A silent fallback
// would keep every decoded value right and lose the speed.
func decodePredicted(t *testing.T, line []byte, l *StepLine, dec *stepDecoder) {
	t.Helper()
	*l = StepLine{}
	s := scanner{b: line}
	if !s.stepLine(l, dec) || s.scanned != 0 {
		t.Fatalf("line %s left the predicted path (%d keys scanned)", line, s.scanned)
	}
}

// TestStepWireMatchesEncoder is the byte-identity property: for random
// decision lines (tripped, dead and error lines included) and request
// lines, the codec writes exactly what json.Encoder writes, errors where
// it errors, and decodes its own output back to the same value. The lines
// run as one stream, through one encoder and one decoder memo per
// direction: two lines in three repeat some of the previous line's floats
// or flip a zero's sign, and a NaN or Inf line every 500 must error and
// leave the memo as it was for the lines after it.
func TestStepWireMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var (
		buf            []byte
		enc            stepEncoder
		dec, reqDec    stepDecoder
		good           *Decision // the last decision the encoder wrote
		afterBad       bool
		prevDemand     float64
		repeats, flips int
	)
	for i := 0; i < 20000; i++ {
		l := randStepLine(rng)
		if d := l.Decision; d != nil && good != nil {
			fs, prev := decisionFloats(d), decisionFloats(good)
			for j := range fs {
				switch r := rng.Intn(6); {
				case afterBad, r < 2:
					*fs[j] = *prev[j]
					repeats++
				case r == 2:
					*fs[j] = math.Copysign(0, -math.Copysign(1, *prev[j]))
					flips++
				}
			}
			if i%500 == 0 {
				d.RoomTempC = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i/500%3]
			}
		}
		want, werr := encoderLine(l)
		hits := enc.hits
		var err error
		buf, err = enc.appendStepLine(append(buf[:0], "x"...), &l)
		if (err == nil) != (werr == nil) {
			t.Fatalf("line %+v: codec err %v, encoder err %v", l, err, werr)
		}
		if err != nil {
			if string(buf) != "x" || enc.hits != hits {
				t.Fatalf("line %+v: the failed encode left %q and %d memo hits, want the buffer as it was", l, buf, enc.hits-hits)
			}
			// The next line repeats the last good one, so its every float
			// must come from the memo the failed line left alone.
			afterBad = true
			continue
		}
		buf = buf[1:]
		if !bytes.Equal(buf, want) {
			t.Fatalf("step line differs from json.Encoder:\n got %s\nwant %s", buf, want)
		}
		if afterBad && l.Decision != nil && good != nil {
			if got := enc.hits - hits; got != 12 {
				t.Fatalf("line %s after a failed line: %d of 12 floats from the memo", buf, got)
			}
			afterBad = false
		}
		if l.Decision != nil {
			good = l.Decision
		}
		var back StepLine
		decodePredicted(t, buf, &back, &dec)
		var ref StepLine
		if err := json.Unmarshal(buf, &ref); err != nil {
			t.Fatalf("unmarshal %s: %v", buf, err)
		}
		sameWireValue(t, buf, back, ref)

		in := StepRequest{Demand: randFloat(rng), RID: randWireString(rng)}
		if rng.Intn(2) == 0 {
			in.Demand = prevDemand
		}
		if rng.Intn(4) > 0 {
			seq := rng.Int63n(1<<40) - 2
			in.Seq = &seq
		}
		if i%700 == 0 {
			in.Demand = math.NaN()
		}
		want, werr = encoderLine(in)
		buf, err = appendStepRequest(buf[:0], &in)
		if (err == nil) != (werr == nil) {
			t.Fatalf("request %+v: codec err %v, encoder err %v", in, err, werr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("step request differs from json.Encoder:\n got %s\nwant %s", buf, want)
		}
		prevDemand = in.Demand
		var backIn, refIn StepRequest
		s := scanner{b: buf}
		if !s.stepRequest(&backIn, &reqDec) || s.scanned != 0 {
			t.Fatalf("request %s left the predicted path", buf)
		}
		if err := json.Unmarshal(buf, &refIn); err != nil {
			t.Fatalf("unmarshal %s: %v", buf, err)
		}
		sameWireValue(t, buf, backIn, refIn)
	}
	if enc.hits == 0 || dec.hits != enc.hits || reqDec.hits == 0 {
		t.Fatalf("memo hits: encoder %d, decoder %d, request decoder %d; want the decoders' equal to the encoder's and none 0",
			enc.hits, dec.hits, reqDec.hits)
	}
	t.Logf("%d repeated floats, %d zero flips; %d memo hits per direction, %d on requests", repeats, flips, enc.hits, reqDec.hits)
}

// refStepLines returns the seed-1 reference session's 1,800 request and
// decision lines, in order: the default plant stepped through the samples
// of SyntheticYahoo(1, 3.2, 15m), each line with a client's request id.
func refStepLines(tb testing.TB) ([]StepRequest, []StepLine) {
	tb.Helper()
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		tb.Fatalf("SyntheticYahoo: %v", err)
	}
	sc, err := ScenarioSpec{}.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	eng, err := sim.New(sc)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	n := len(tr.Samples)
	reqs, lines := make([]StepRequest, n), make([]StepLine, n)
	seqs, decs := make([]int64, n), make([]Decision, n)
	for i, demand := range tr.Samples {
		td, err := eng.Step(demand)
		if err != nil {
			tb.Fatalf("Step %d: %v", i, err)
		}
		rid := fmt.Sprintf("t4a1b2c3d4e5f60718.%d", i+1)
		seqs[i], decs[i] = int64(i), decisionOf(i, td)
		reqs[i] = StepRequest{Demand: demand, Seq: &seqs[i], RID: rid}
		lines[i] = StepLine{Decision: &decs[i], RID: rid}
	}
	return reqs, lines
}

// TestStepMemoReferenceHits pins the memos' work on the reference session,
// streamed through one encoder and one decoder per direction: a float
// field comes from the memo exactly when its bits equal the previous
// line's, 15,427 of the 21,600 decision fields, and every line takes the
// predicted path and decodes to what was encoded.
func TestStepMemoReferenceHits(t *testing.T) {
	reqs, lines := refStepLines(t)
	const wantHits = 15427
	same, sameDemand := 0, 0
	for i := 1; i < len(lines); i++ {
		fs, prev := decisionFloats(lines[i].Decision), decisionFloats(lines[i-1].Decision)
		for j := range fs {
			if math.Float64bits(*fs[j]) == math.Float64bits(*prev[j]) {
				same++
			}
		}
		if math.Float64bits(reqs[i].Demand) == math.Float64bits(reqs[i-1].Demand) {
			sameDemand++
		}
	}
	var (
		buf         []byte
		enc         stepEncoder
		dec, reqDec stepDecoder
		err         error
	)
	for i := range lines {
		if buf, err = appendStepRequest(buf[:0], &reqs[i]); err != nil {
			t.Fatalf("appendStepRequest: %v", err)
		}
		var in StepRequest
		s := scanner{b: buf}
		if !s.stepRequest(&in, &reqDec) || s.scanned != 0 {
			t.Fatalf("request %s left the predicted path", buf)
		}
		sameWireValue(t, buf, in, reqs[i])
		if buf, err = enc.appendStepLine(buf[:0], &lines[i]); err != nil {
			t.Fatalf("appendStepLine: %v", err)
		}
		var l StepLine
		decodePredicted(t, buf, &l, &dec)
		sameWireValue(t, buf, l, lines[i])
	}
	if enc.hits != same || dec.hits != same || reqDec.hits != sameDemand {
		t.Fatalf("memo hits: encoder %d, decoder %d, request decoder %d; want %d bit-equal consecutive fields and %d demands",
			enc.hits, dec.hits, reqDec.hits, same, sameDemand)
	}
	if same != wantHits {
		t.Fatalf("the reference session has %d bit-equal consecutive fields, want %d", same, wantHits)
	}
}

// Seeds shared by the fuzzers: real lines, error lines, legacy lines and
// the float forms at encoding/json's format boundaries.
var wireSeeds = []string{
	`{"demand":1.25,"seq":7,"rid":"t1.8"}`,
	`{"demand":0.4}`,
	`{"demand":0.4,"seq":null}`,
	`{"demand":-0,"seq":0}`,
	`{"demand":1e-7}`,
	`{"demand":1e21,"rid":"x"}`,
	` { "rid" : "a" , "demand" : 2 } `,
	`{"tick":12,"demand":3.2,"delivered":3.2,"degree":1.6,"bound":2,"phase":1,"active_cores":4000,"it_power_w":412345.5,"cooling_power_w":80000,"dc_load_w":500000.25,"pdu_load_w":50000,"ups_power_w":0,"gen_power_w":0,"tes_heat_rate_w":0,"room_temp_c":24.9,"rid":"t1.13"}`,
	`{"tick":0,"demand":0,"delivered":0,"degree":1,"bound":1,"phase":0,"active_cores":0,"it_power_w":0,"cooling_power_w":0,"dc_load_w":0,"pdu_load_w":0,"ups_power_w":0,"gen_power_w":0,"tes_heat_rate_w":0,"room_temp_c":22,"tripped":true,"dead":true}`,
	`{"rid":"t1.9","error":"service: session queue full","code":429,"retry_after_ms":5}`,
	`{"error":"service: step sequence out of order: seq 3, next tick 4","code":409}`,
	`{"tick":null}`,
	`{"Demand":1}`,
	`{"demand":"1"}`,
	`{"demand":1,"extra":{"a":[1]}}`,
	`{"rid":"a\"b"}`,
	`{"demand":01}`,
	`{"demand":1e400}`,
	`{"code":1.5}`,
	`{"demand":1}{"demand":2}`,
	`null`,
	`{}`,
	``,
}

// FuzzStepRequestWire: the request decoder agrees with json.Unmarshal on
// every input — value and whether it errors — and an accepted request
// re-encodes to json.Encoder's bytes, which decode and encode back to
// themselves.
func FuzzStepRequestWire(f *testing.F) {
	fuzzWire(f, func(b []byte, in *StepRequest) error { return new(stepDecoder).decodeStepRequest(b, in) },
		appendStepRequest)
}

// FuzzStepLineWire is FuzzStepRequestWire for decision and error lines,
// each as the first line of a stream, through empty memos.
func FuzzStepLineWire(f *testing.F) {
	fuzzWire(f, func(b []byte, l *StepLine) error { return new(stepDecoder).decodeStepLine(b, l) },
		func(b []byte, l *StepLine) ([]byte, error) { return new(stepEncoder).appendStepLine(b, l) })
}

// FuzzStepLineStream splits its input at newlines and decodes every line
// through one decoder memo, as a client reads a stream: each line must
// decode as json.Unmarshal decodes it into a zero StepLine, value and
// error, whatever literals the lines before it left in the memo.
func FuzzStepLineStream(f *testing.F) {
	// Seeds stay short. The fuzzer minimises each new input it finds, at a
	// cost that grows with the square of the input's length, and seeds of
	// a few full decision lines kept a 10 s run minimising instead of
	// fuzzing.
	//
	// Canonical lines that repeat some literals, change others and flip a
	// zero's sign, as one encoder streams them.
	f.Add([]byte(`{"tick":1,"demand":1.5,"degree":1.25,"bound":2,"room_temp_c":-0,"rid":"a"}
{"tick":2,"demand":1.5,"degree":1.3,"bound":2,"room_temp_c":0,"tripped":true}`))
	// The same values as other literals, a literal that only starts like
	// the last one, and lines the scanner hands on.
	f.Add([]byte(`{"demand":1.5,"bound":2}
{"demand":1.50,"bound":2.0}
{"demand":15e-1,"bound":20}
{"demand":1.5 ,"bound":null}
{"demand":1.5x}`))
	f.Add([]byte(`{"demand":1.5,"demand":1.25,"Bound":3}
{"room_temp_c":22,"demand":"1.5"}
{"demand":1.25,"error":"x","code":429}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec stepDecoder
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var got, want StepLine
			err := dec.decodeStepLine(line, &got)
			werr := json.Unmarshal(line, &want)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%q: decode err %v, json.Unmarshal err %v", line, err, werr)
			}
			sameWireValue(t, line, got, want)
		}
	})
}

func fuzzWire[T any](f *testing.F, decode func([]byte, *T) error, encode func([]byte, *T) ([]byte, error), seeds ...[]byte) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want T
		err := decode(data, &got)
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: decode err %v, json.Unmarshal err %v", data, err, werr)
		}
		sameWireValue(t, data, got, want)
		if err != nil {
			return
		}
		line, err := encode(nil, &got)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", got, err)
		}
		if ref, _ := encoderLine(got); !bytes.Equal(line, ref) {
			t.Fatalf("re-encode differs from json.Encoder:\n got %s\nwant %s", line, ref)
		}
		// Decoding the re-encoded line agrees with json.Unmarshal and gives
		// back a value that encodes to the same bytes. It need not equal
		// got: an omitempty slice that was empty decodes back as nil.
		var back, ref T
		if err := decode(line[:len(line)-1], &back); err != nil {
			t.Fatalf("decode re-encoded %s: %v", line, err)
		}
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("json.Unmarshal re-encoded %s: %v", line, err)
		}
		sameWireValue(t, line, back, ref)
		if again, err := encode(nil, &back); err != nil || !bytes.Equal(again, line) {
			t.Fatalf("re-encoding the decoded line gives %s, %v; want %s", again, err, line)
		}
	})
}

// TestReadLine pins the framing: lines come back without their newline
// (a CR stays, for the decoder to skip as whitespace), blank lines are
// skipped as a json.Decoder skips whitespace between values, a final
// unterminated line still counts, and a line over the cap is an error.
func TestReadLine(t *testing.T) {
	in := "{\"demand\":1}\n\n \t\r\n{\"demand\":2}\r\n{\"demand\":3}"
	br := newLineReader(strings.NewReader(in))
	for _, want := range []string{`{"demand":1}`, "{\"demand\":2}\r", `{"demand":3}`} {
		got, err := readLine(br)
		if err != nil || string(got) != want {
			t.Fatalf("readLine = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := readLine(br); err != io.EOF {
		t.Fatalf("after the last line: err %v, want EOF", err)
	}
	br = newLineReader(strings.NewReader(strings.Repeat(" ", maxStepLine-1) + "\n"))
	if _, err := readLine(br); err != io.EOF {
		t.Fatalf("blank line at the cap: err %v, want EOF", err)
	}
	br = newLineReader(strings.NewReader(strings.Repeat("x", maxStepLine) + "\n"))
	if _, err := readLine(br); err != errStepLineTooLong {
		t.Fatalf("line over the cap: err %v, want errStepLineTooLong", err)
	}
}

// sameWireValue fails unless got and want are equal down to the sign of
// zero and which pointers are set (json.Marshal tells both apart).
func sameWireValue(t *testing.T, in []byte, got, want any) {
	t.Helper()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gj, wj) {
		t.Fatalf("%q decodes to %s, json.Unmarshal to %s", in, gj, wj)
	}
}

// postSteps opens a steps stream with the whole body already written and
// returns the response lines after the hello.
func postSteps(t *testing.T, base, id, body string) []StepLine {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/steps", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST steps: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST steps: status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []StepLine
	for first := true; sc.Scan(); first = false {
		if first {
			var h StreamHello
			if err := json.Unmarshal(sc.Bytes(), &h); err != nil || !h.Hello {
				t.Fatalf("hello line %q: %v", sc.Bytes(), err)
			}
			continue
		}
		var l StepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return lines
}

// TestStepsStreamRejectsBadLines: an over-long or malformed input line gets
// one 400 error line saying why, then the stream ends — the lines after it
// are never applied. Each case also runs through a chaos proxy that splits
// every write into a few bytes, so lines must reassemble from partial
// reads on both ends.
func TestStepsStreamRejectsBadLines(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: m.Handler()}
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck
	p, err := chaosnet.Start(chaosnet.Config{Target: ln.Addr().String(), Seed: 3, ChunkMax: 7})
	if err != nil {
		t.Fatalf("chaosnet: %v", err)
	}
	defer p.Close()

	good := `{"demand":1.5,"seq":%d}` + "\n"
	cases := []struct {
		name, bad, want string
	}{
		{"over-long", `{"demand":1,"rid":"` + strings.Repeat("x", maxStepLine) + `"}` + "\n", "exceeds"},
		{"malformed", `{"demand":` + "\n", "malformed"},
		{"wrong type", `{"demand":"high"}` + "\n", "malformed"},
	}
	for _, via := range []string{"direct", "chaos"} {
		base := "http://" + ln.Addr().String()
		if via == "chaos" {
			base = "http://" + p.Addr()
		}
		for _, tc := range cases {
			t.Run(via+"/"+tc.name, func(t *testing.T) {
				s, err := m.Create(ScenarioSpec{})
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				body := strings.ReplaceAll(good, "%d", "0") + strings.ReplaceAll(good, "%d", "1") +
					tc.bad + strings.ReplaceAll(good, "%d", "2")
				lines := postSteps(t, base, s.ID, body)
				if len(lines) != 3 {
					t.Fatalf("got %d lines after hello, want 2 decisions and 1 error: %+v", len(lines), lines)
				}
				for i, l := range lines[:2] {
					if l.Decision == nil || l.Decision.Tick != i {
						t.Fatalf("line %d = %+v, want the decision for tick %d", i, l, i)
					}
				}
				if e := lines[2]; e.Code != http.StatusBadRequest || e.Decision != nil || !strings.Contains(e.Err, tc.want) {
					t.Fatalf("error line = %+v, want code 400 mentioning %q", e, tc.want)
				}
				if info, err := m.Info(s.ID); err != nil || info.Tick != 2 {
					t.Fatalf("session after bad line: %+v, %v; want tick 2", info, err)
				}
				if _, err := m.Finish(s.ID); err != nil {
					t.Fatalf("Finish: %v", err)
				}
			})
		}
	}

	// A client that keeps its body open after a bad line loses the
	// connection once the grace period runs out.
	t.Run("held-open", func(t *testing.T) {
		s, err := m.Create(ScenarioSpec{})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		pr, pw := io.Pipe()
		defer pw.Close()
		req, err := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/sessions/"+s.ID+"/steps", pr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST steps: %v", err)
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatalf("hello: %v", err)
		}
		if _, err := io.WriteString(pw, "{\"demand\":}\n"); err != nil {
			t.Fatalf("write: %v", err)
		}
		var l StepLine
		if raw, err := br.ReadBytes('\n'); err != nil || json.Unmarshal(raw, &l) != nil || l.Code != http.StatusBadRequest {
			t.Fatalf("error line %q, %v", raw, err)
		}
		start := time.Now()
		if raw, err := br.ReadBytes('\n'); err == nil {
			t.Fatalf("stream went on after the error line: %q", raw)
		}
		if waited := time.Since(start); waited > badLineGrace+2*time.Second {
			t.Fatalf("stream ended %v after the error line, want about %v", waited, badLineGrace)
		}
	})

	// The client's own reader reassembles split decision lines too.
	s, err := m.Create(yahooSpec("wire-chaos"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	c := &Client{Base: "http://" + p.Addr()}
	ctx := context.Background()
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		d, err := st.StepContext(ctx, 1+float64(i)/10)
		if err != nil || d.Tick != i || d.Demand != 1+float64(i)/10 {
			t.Fatalf("step %d over chaos: %+v, %v", i, d, err)
		}
	}
}

// refResultViews are finish replies of seeded reference runs: a controlled
// one, an uncontrolled one that trips and dies, a faulted one, and a
// streaming session finished before its first tick.
func refResultViews(tb testing.TB) []ResultView {
	tb.Helper()
	yahoo := func(seed int64) *trace.Series {
		tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
		if err != nil {
			tb.Fatalf("SyntheticYahoo: %v", err)
		}
		return tr
	}
	// Seed 30's faults make supervision abort sprints, then kill the
	// facility.
	faulted := yahoo(30)
	var views []ResultView
	for _, sc := range []sim.Scenario{
		{Name: "controlled", Trace: yahoo(1)},
		{Name: "uncontrolled", Trace: yahoo(2), Uncontrolled: true},
		{Name: "faulted", Trace: faulted, Faults: faults.Random(30, faulted.Duration(), sim.DefaultServers/200)},
	} {
		res, err := sim.Run(sc)
		if err != nil {
			tb.Fatalf("Run %s: %v", sc.Name, err)
		}
		views = append(views, NewResultView(res))
	}
	eng, err := sim.New(sim.Scenario{})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	res, err := eng.Finish()
	if err != nil {
		tb.Fatalf("Finish: %v", err)
	}
	return append(views, NewResultView(res))
}

// checkResultViewWire fails unless appendResultView writes exactly what
// json.Encoder writes for v, after any prefix already in the buffer, and
// decodeResultView reads it back as json.Unmarshal does.
func checkResultViewWire(t *testing.T, v ResultView) {
	t.Helper()
	want, err := encoderLine(v)
	if err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	prefix := []byte("prefix")
	got, err := appendResultView(prefix, &v)
	if err != nil {
		t.Fatalf("appendResultView: %v", err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("finish reply differs from json.Encoder:\n got %s\nwant %s", got, want)
	}
	var back, ref ResultView
	if err := decodeResultView(want, &back); err != nil {
		t.Fatalf("decodeResultView: %v", err)
	}
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatalf("json.Unmarshal: %v", err)
	}
	sameWireValue(t, want, back, ref)
	if !scanResultView(want, &ResultView{}) {
		t.Fatalf("the scanner handed an encoder reply to json.Unmarshal: %s", want)
	}
}

// TestResultViewWireMatchesEncoder is the finish reply's byte-identity
// property, over real runs, the float format boundaries, every string
// escape, nil against empty slices and random views; NaN and Inf are errors
// wherever they sit, as they are for encoding/json.
func TestResultViewWireMatchesEncoder(t *testing.T) {
	refs := refResultViews(t)
	var dead, tripped, aborts, faulted, events bool
	for _, v := range refs {
		dead = dead || v.Dead
		tripped = tripped || v.TrippedAtNs >= 0
		aborts = aborts || v.Aborts != 0
		faulted = faulted || v.FaultsApplied != 0
		events = events || len(v.Events) > 0
		checkResultViewWire(t, v)
	}
	if !dead || !tripped || !aborts || !faulted || !events {
		t.Fatalf("reference runs miss a case: dead %v tripped %v aborts %v faulted %v events %v",
			dead, tripped, aborts, faulted, events)
	}
	if v := refs[len(refs)-1]; v.Ticks != 0 || v.Telemetry.Required == nil {
		t.Fatalf("0-tick view: %d ticks, required %v; want 0 and an empty series", v.Ticks, v.Telemetry.Required)
	}

	edge := []float64{0, math.Copysign(0, -1), 0, 1e-6, 9.99e-7, 1e-7, 1e-7, -1e-7, 1e20, 1e21, 1e21, -1e21, 5e-324}
	odd := "<>&    \xff\xe2\x82 \"\\\n\x00 phase 0 -> 1"
	v := ResultView{
		Name: odd, StepNs: -1, Ticks: len(edge), AvgBurstPerformance: math.Copysign(0, -1),
		Improvement: 1e-7, TrippedAtNs: -1, Dead: true, Aborts: -2, MaxBreakerStress: 1e21,
		FaultsApplied: 3, SplitUPSJ: 9.99e-7,
		Events: []EventView{{TimeNs: 1, Kind: 2, Name: odd, Detail: odd, From: -1, To: 3}, {Name: ""}},
		Telemetry: TelemetryView{
			Required: edge, Achieved: []float64{}, Degree: edge[:1], DCLoadW: edge[1:],
			Phase: []int{0, 1, -1, 1 << 40},
		},
	}
	checkResultViewWire(t, v)
	v.Events, v.Telemetry.Phase, v.Telemetry.Required = []EventView{}, []int{}, nil
	checkResultViewWire(t, v)
	checkResultViewWire(t, ResultView{})

	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		checkResultViewWire(t, randResultView(rng))
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*ResultView){
			func(v *ResultView) { v.Improvement = bad },
			func(v *ResultView) { v.PDURatedW = bad },
			func(v *ResultView) { v.Telemetry.RoomTempC = []float64{1, 1, bad} },
		} {
			v := refs[0]
			v.Telemetry.RoomTempC = append([]float64(nil), v.Telemetry.RoomTempC...)
			set(&v)
			if _, werr := encoderLine(v); werr == nil {
				t.Fatalf("json.Encoder accepted %v", bad)
			}
			b, err := appendResultView([]byte("x"), &v)
			if !errors.Is(err, errNotFinite) || string(b) != "x" {
				t.Fatalf("appendResultView with %v: %q, %v; want the buffer as it was and errNotFinite", bad, b, err)
			}
		}
	}
}

func randFloats(rng *rand.Rand) []float64 {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	fs := make([]float64, rng.Intn(40))
	for i := range fs {
		// Runs of repeats, as a result's series hold.
		if i > 0 && rng.Intn(2) == 0 {
			fs[i] = fs[i-1]
		} else {
			fs[i] = randFloat(rng)
		}
	}
	return fs
}

func randResultView(rng *rand.Rand) ResultView {
	v := ResultView{
		Name: randWireString(rng), StepNs: rng.Int63(), Ticks: rng.Intn(4000),
		AvgBurstPerformance: randFloat(rng), Improvement: randFloat(rng),
		SprintSustainedNs: rng.Int63(), TrippedAtNs: rng.Int63n(1<<40) - 1, Dead: rng.Intn(2) == 0,
		Aborts: rng.Intn(3), MaxBreakerStress: randFloat(rng), ExcessServed: randFloat(rng),
		FaultsApplied: rng.Intn(3), SplitUPSJ: randFloat(rng), SplitTESJ: randFloat(rng),
		SplitCBOverloadJ: randFloat(rng), DCRatedW: randFloat(rng), PDURatedW: randFloat(rng),
		Telemetry: TelemetryView{
			Required: randFloats(rng), Achieved: randFloats(rng), Degree: randFloats(rng),
			DCLoadW: randFloats(rng), PDULoadW: randFloats(rng), UPSPowerW: randFloats(rng),
			GenPowerW: randFloats(rng), UPSSoC: randFloats(rng), CoolingPowerW: randFloats(rng),
			TESRateW: randFloats(rng), RoomTempC: randFloats(rng),
		},
	}
	if n := rng.Intn(5); n > 0 {
		v.Telemetry.Phase = make([]int, n-1)
		for i := range v.Telemetry.Phase {
			v.Telemetry.Phase[i] = rng.Intn(4)
		}
	}
	if n := rng.Intn(5); n > 0 {
		v.Events = make([]EventView, n-1)
		for i := range v.Events {
			v.Events[i] = EventView{TimeNs: rng.Int63(), Kind: rng.Intn(9), Name: randWireString(rng),
				Detail: randWireString(rng), From: rng.Intn(4), To: rng.Intn(4)}
		}
	}
	return v
}

// TestResultViewAppendAllocs: encoding into a reused buffer does not
// allocate.
func TestResultViewAppendAllocs(t *testing.T) {
	v := refResultViews(t)[0]
	buf, err := appendResultView(nil, &v)
	if err != nil {
		t.Fatalf("appendResultView: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = appendResultView(buf[:0], &v); err != nil {
			t.Fatalf("appendResultView: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("appendResultView into a reused buffer allocates %v/op, want 0", allocs)
	}
}

// FuzzResultViewWire: the finish-reply decoder agrees with json.Unmarshal
// on every input, value and error, and an accepted reply re-encodes to
// json.Encoder's bytes, which decode and encode back to themselves.
func FuzzResultViewWire(f *testing.F) {
	eng, err := sim.New(sim.Scenario{Name: "fuzz"})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	for i := 0; i < 12; i++ {
		if _, err := eng.Step(3.2); err != nil {
			f.Fatalf("Step: %v", err)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		f.Fatalf("Finish: %v", err)
	}
	// The faulted view, cut to its first ticks and events: a dead result
	// with aborts and faults_applied, small enough to mutate quickly.
	refs := refResultViews(f)
	cut := refs[2]
	tv := &cut.Telemetry
	for _, s := range []*[]float64{&tv.Required, &tv.Achieved, &tv.Degree, &tv.DCLoadW, &tv.PDULoadW,
		&tv.UPSPowerW, &tv.GenPowerW, &tv.UPSSoC, &tv.CoolingPowerW, &tv.TESRateW, &tv.RoomTempC} {
		*s = (*s)[:6]
	}
	tv.Phase, cut.Events = tv.Phase[:6], cut.Events[:4]
	var seeds [][]byte
	for _, v := range []ResultView{cut, refs[3], NewResultView(res)} {
		b, err := appendResultView(nil, &v)
		if err != nil {
			f.Fatalf("appendResultView: %v", err)
		}
		seeds = append(seeds, b)
	}
	if !bytes.Contains(seeds[len(seeds)-1], []byte(`\u003e`)) {
		f.Fatalf("the 12-tick seed has no escaped event detail: %s", seeds[len(seeds)-1])
	}
	for _, s := range []string{
		`{"Name":"x","STEP_NS":1,"Telemetry":{"Required":[1]}}`,
		` { "ticks" : 2 ,  "telemetry" : { "required" : [ 1 , 1 ] , "phase" : [ 0 , 1 ] } } ` + "\n\t",
		`{"name":null,"events":null,"telemetry":{"required":null,"achieved":[],"phase":null}}`,
		`{"telemetry":null,"dead":null,"aborts":null}`,
		`{"events":[{"time_ns":1,"name":"aA\/\t","detail":"phase 0 > 1"}],"events":[{"kind":2}]}`,
		`{"events":[]}`,
		`{"events":[null]}`,
		`{"telemetry":{"required":[1,null]}}`,
		`{"telemetry":{"required":[1],"required":[2,3]},"telemetry":{"achieved":[4]}}`,
		`{"name":"😀"}`,
		`{"name":"\ud800"}`,
		`{"telemetry":{"phase":[1.5]}}`,
		`{"ticks":2}x`,
	} {
		seeds = append(seeds, []byte(s))
	}
	fuzzWire(f, decodeResultView, appendResultView, seeds...)
}

// BenchmarkResultViewWire times the finish reply's codec against
// encoding/json on the streaming reference session: finished at a churn
// session's 12 ticks and at its full 1,800. Each encode reuses a buffer.
func BenchmarkResultViewWire(b *testing.B) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		b.Fatalf("SyntheticYahoo: %v", err)
	}
	for _, ticks := range []int{12, 1800} {
		eng, err := sim.New(sim.Scenario{})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		for _, d := range tr.Samples[:ticks] {
			if _, err := eng.Step(d); err != nil {
				b.Fatalf("Step: %v", err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			b.Fatalf("Finish: %v", err)
		}
		v := NewResultView(res)
		reply, err := appendResultView(nil, &v)
		if err != nil {
			b.Fatalf("appendResultView: %v", err)
		}
		var out ResultView
		for _, c := range []struct {
			name string
			op   func() error
		}{
			{"encode", func() (err error) { reply, err = appendResultView(reply[:0], &v); return err }},
			{"json-encode", func() error {
				buf := bytes.NewBuffer(reply[:0])
				return json.NewEncoder(buf).Encode(&v)
			}},
			{"decode", func() error { return decodeResultView(reply, &out) }},
			{"json-decode", func() error { out = ResultView{}; return json.Unmarshal(reply, &out) }},
		} {
			b.Run(fmt.Sprintf("%s/t%d", c.name, ticks), func(b *testing.B) {
				b.SetBytes(int64(len(reply)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
