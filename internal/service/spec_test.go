package service

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestTraceSpecRejectsBeforeAllocating feeds create bodies whose traces
// would be too long, or whose durations do not fit, and checks each is
// rejected, naming the field, before the trace is allocated. A duration
// that does not fit is rejected, not replaced by its default.
func TestTraceSpecRejectsBeforeAllocating(t *testing.T) {
	cases := []struct {
		name, body, err string
	}{
		{"80 MB constant", `{"trace":{"kind":"constant","duration_seconds":1e7,"value":1}}`, "exceeds"},
		{"nanosecond step", `{"trace":{"kind":"constant","duration_seconds":1e6,"step_seconds":1e-9,"value":1}}`, "exceeds"},
		{"sub-nanosecond step", `{"trace":{"kind":"constant","duration_seconds":10,"step_seconds":1e-12}}`, "step_seconds"},
		{"duration past int64", `{"trace":{"kind":"constant","duration_seconds":1e12,"value":1}}`, "duration_seconds"},
		{"step past int64", `{"trace":{"kind":"samples","samples":[1,2],"step_seconds":1e300}}`, "step_seconds"},
		{"negative step", `{"trace":{"kind":"samples","samples":[1,2],"step_seconds":-1}}`, "step_seconds"},
		{"yahoo duration past int64", `{"trace":{"kind":"yahoo","seed":1,"degree":3,"duration_seconds":1e300}}`, "duration_seconds"},
		{"reserve past int64", `{"reserve_seconds":1e300}`, "reserve_seconds"},
		{"negative reserve", `{"reserve_seconds":-60}`, "reserve_seconds"},
		{"predicted past int64", `{"strategy":{"kind":"prediction","predicted_seconds":1e300}}`, "predicted_seconds"},
		{"min duration past int64", `{"strategy":{"kind":"adaptive","min_duration_seconds":1e300}}`, "min_duration_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var spec ScenarioSpec
			if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := spec.Build()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Build err = %v, want one mentioning %q", err, tc.err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("rejecting the spec allocated %d bytes", got)
			}
		})
	}
}

// FuzzScenarioSpec decodes arbitrary create bodies and builds them: no input
// may panic, and every accepted trace stays within MaxTraceSamples.
func FuzzScenarioSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"name":"y","trace":{"kind":"yahoo","seed":1,"degree":3.2,"duration_seconds":900}}`,
		`{"trace":{"kind":"ms","seed":7}}`,
		`{"trace":{"kind":"constant","duration_seconds":30,"value":2}}`,
		`{"trace":{"kind":"constant","duration_seconds":1048576,"value":1}}`,
		`{"trace":{"kind":"constant","duration_seconds":1e7,"value":1}}`,
		`{"trace":{"kind":"constant","duration_seconds":1e6,"step_seconds":1e-9,"value":1}}`,
		`{"trace":{"kind":"samples","samples":[1,1.5,1],"step_seconds":0.5}}`,
		`{"strategy":{"kind":"fixed","bound":2},"servers":1000,"servers_per_pdu":10}`,
		`{"strategy":{"kind":"heuristic","estimated_avg_degree":2.4,"flexibility":0.1}}`,
		`{"strategy":{"kind":"adaptive","min_duration_seconds":60},"weights":[1,2]}`,
		`{"servers":-1}`,
		`{"reserve_seconds":1e300}`,
		`{"reserve_seconds":90,"strategy":{"kind":"prediction","predicted_seconds":1e300}}`,
		`{"strategy":{"kind":"adaptive","min_duration_seconds":-1e300}}`,
		`{"trace":{"kind":"yahoo","seed":1,"degree":3,"duration_seconds":1e300}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec ScenarioSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		sc, err := spec.Build()
		if err != nil || sc.Trace == nil {
			return
		}
		if n := sc.Trace.Len(); n > MaxTraceSamples {
			t.Fatalf("accepted a %d-sample trace from %s", n, body)
		}
	})
}
