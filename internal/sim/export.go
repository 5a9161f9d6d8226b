package sim

import (
	"bufio"
	"encoding/json"
	"io"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/telemetry"
)

// WriteCSV writes the run's canonical per-second telemetry table — the
// single schema shared by dcsprint -csv and the experiment harness:
//
//	t_sec,required,achieved,degree,phase,dc_load_w,pdu_load_w,ups_w,cooling_w,tes_w,room_c
func (res *Result) WriteCSV(w io.Writer) error {
	tele := res.Telemetry
	phase := make([]float64, len(tele.Phase))
	for i, p := range tele.Phase {
		phase[i] = float64(p)
	}
	return telemetry.WriteCSV(w, tele.Required.Step,
		telemetry.Column{Name: "required", Values: tele.Required.Samples, Format: "%.4f"},
		telemetry.Column{Name: "achieved", Values: tele.Achieved.Samples, Format: "%.4f"},
		telemetry.Column{Name: "degree", Values: tele.Degree.Samples, Format: "%.4f"},
		telemetry.Column{Name: "phase", Values: phase, Format: "%.0f"},
		telemetry.Column{Name: "dc_load_w", Values: tele.DCLoad.Samples, Format: "%.0f"},
		telemetry.Column{Name: "pdu_load_w", Values: tele.PDULoad.Samples, Format: "%.0f"},
		telemetry.Column{Name: "ups_w", Values: tele.UPSPower.Samples, Format: "%.0f"},
		telemetry.Column{Name: "cooling_w", Values: tele.CoolingPower.Samples, Format: "%.0f"},
		telemetry.Column{Name: "tes_w", Values: tele.TESRate.Samples, Format: "%.0f"},
		telemetry.Column{Name: "room_c", Values: tele.RoomTemp.Samples, Format: "%.2f"},
	)
}

// WriteTraceJSONL writes the run's sprint-lifecycle trace, one JSON span or
// point record per line in time order: core.TraceRecords over the event
// log, with spans still open at the last tick closed there. Like the event
// log it stops at the controller's event-log cap; telemetry.ReadJSONL
// parses it back.
func (res *Result) WriteTraceJSONL(w io.Writer) error {
	tele := &res.Telemetry
	end := time.Duration(tele.Required.Len()) * tele.Required.Step
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range core.TraceRecords(res.Events, end) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRunCSV writes res's canonical telemetry table; it is a thin wrapper
// around (*Result).WriteCSV kept for existing callers.
func WriteRunCSV(w io.Writer, res *Result) error { return res.WriteCSV(w) }
