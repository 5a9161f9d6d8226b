package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceRecord is the JSONL wire form of one sprint-lifecycle span or point
// (see core.TraceRecords). Times are in seconds of simulation time,
// matching the per-second tick resolution.
type TraceRecord struct {
	Type   string  `json:"type"` // "span" or "point"
	Name   string  `json:"name"`
	StartS float64 `json:"start_s,omitempty"`
	EndS   float64 `json:"end_s,omitempty"`
	AtS    float64 `json:"t_s,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// ReadJSONL parses JSONL trace records back — the round-trip used by tests
// and downstream analysis.
func ReadJSONL(r io.Reader) ([]TraceRecord, error) {
	dec := json.NewDecoder(r)
	var out []TraceRecord
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: jsonl record %d: %w", len(out)+1, err)
		}
		if rec.Type != "span" && rec.Type != "point" {
			return nil, fmt.Errorf("telemetry: jsonl record %d: unknown type %q", len(out)+1, rec.Type)
		}
		out = append(out, rec)
	}
}
