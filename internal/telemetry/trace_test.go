package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestJSONLRoundTrip checks ReadJSONL recovers records written one JSON
// object per line, zero times and empty details included.
func TestJSONLRoundTrip(t *testing.T) {
	want := []TraceRecord{
		{Type: "span", Name: "burst", StartS: 10, EndS: 90, Detail: "d"},
		{Type: "span", Name: "phase-cb-overload", StartS: 0, EndS: 0.5},
		{Type: "point", Name: "tes-exhausted", AtS: 55, Detail: "tank dry"},
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, rec := range want {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(b.String(), "\n"); got != len(want) {
		t.Fatalf("JSONL lines = %d, want %d\n%s", got, len(want), b.String())
	}
	if line := strings.SplitN(b.String(), "\n", 2)[0]; line != `{"type":"span","name":"burst","start_s":10,"end_s":90,"detail":"d"}` {
		t.Fatalf("wire form = %s", line)
	}
	got, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %+v, want %+v", got, want)
	}
}

func TestReadJSONLRejectsUnknownType(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"type":"bogus","name":"x"}` + "\n")); err == nil {
		t.Fatal("ReadJSONL accepted unknown record type")
	}
	if _, err := ReadJSONL(strings.NewReader(`{garbage`)); err == nil {
		t.Fatal("ReadJSONL accepted malformed JSON")
	}
}
