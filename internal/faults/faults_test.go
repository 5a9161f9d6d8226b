package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFullTaxonomy(t *testing.T) {
	spec := `
# a full campaign, one line per kind
10s battery-fail group=3
20s battery-fade group=all frac=0.5
30s tes-valve-stuck dur=2m
40s tes-leak rate=50000 dur=5m
50s chiller-fail frac=0.7 dur=1m
1m  grid-curtail frac=0.8 dur=90s
70s breaker-derate level=dc frac=0.9
80s breaker-derate level=pdu group=2 frac=0.85
90s sensor-stale sensor=room-temp dur=30s
100s sensor-dropout sensor=ups-soc dur=45s
110s sensor-noise sensor=tes-level sigma=0.02 dur=1m
2m   sensor-stuck sensor=room-temp dur=1m value=26
`
	s, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 12 {
		t.Fatalf("parsed %d events, want 12", len(s.Events))
	}
	// Sorted by time.
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events out of order: %v after %v", s.Events[i], s.Events[i-1])
		}
	}
	// Spot checks.
	if e := s.Events[0]; e.Kind != KindBatteryFail || e.Group != 3 {
		t.Fatalf("first event = %+v", e)
	}
	if e := s.Events[1]; e.Kind != KindBatteryFade || e.Group != GroupAll || e.Frac != 0.5 {
		t.Fatalf("fade event = %+v", e)
	}
	if e := s.Events[6]; e.Kind != KindBreakerDerate || e.Group != GroupAll {
		t.Fatalf("dc derate event = %+v", e)
	}
	if e := s.Events[7]; e.Kind != KindBreakerDerate || e.Group != 2 {
		t.Fatalf("pdu derate event = %+v", e)
	}
	if e := s.Events[11]; e.Kind != KindSensorStuck || e.Sensor != SensorRoomTemp || e.Value != 26 {
		t.Fatalf("stuck event = %+v", e)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"10s",                                              // missing kind
		"oops battery-fail group=1",                        // bad time
		"10s no-such-fault",                                // unknown kind
		"10s battery-fail group",                           // not key=value
		"10s battery-fail group=x",                         // bad group
		"10s battery-fail group=-2",                        // negative group
		"10s battery-fade group=1 frac=nope",               // bad frac
		"10s battery-fade group=1 frac=1.5",                // frac out of range
		"10s tes-leak rate=-5",                             // non-positive rate
		"10s grid-curtail frac=0.5",                        // missing dur
		"10s breaker-derate level=pdu frac=0.9",            // pdu without group
		"10s breaker-derate level=attic frac=1",            // bad level
		"10s breaker-derate level=dc frac=0",               // frac out of (0,1]
		"10s sensor-stale dur=1m",                          // missing sensor
		"10s sensor-stale sensor=barometer dur=1m",         // unknown sensor
		"10s sensor-stale sensor=room-temp",                // missing dur
		"10s sensor-noise sensor=room-temp dur=1m sigma=0", // non-positive sigma
		"10s sensor-stuck sensor=room-temp dur=1m value=+Inf",
		"10s battery-fail group=1 color=red", // unknown key
		"-5s battery-fail group=1",           // negative time
		"10s sensor-stale sensor=room-temp dur=-1m",
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("accepted malformed line %q", line)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	s, err := Parse(strings.NewReader("\n# nothing\n\n10s battery-fail group=0 # trailing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(s.Events))
	}
}

// Every event must render to a canonical line that parses back to the same
// event — the property cmd/dcsprint and cmd/experiments rely on to replay
// identical campaigns.
func TestEventStringRoundTrips(t *testing.T) {
	events := []Event{
		{At: 10 * time.Second, Kind: KindBatteryFail, Group: 3, Value: math.NaN()},
		{At: 10 * time.Second, Kind: KindBatteryFail, Group: GroupAll, Value: math.NaN()},
		{At: 20 * time.Second, Kind: KindBatteryFade, Group: GroupAll, Frac: 0.5, Value: math.NaN()},
		{At: 30 * time.Second, Kind: KindTESValveStuck, Group: GroupAll, Dur: 2 * time.Minute, Value: math.NaN()},
		{At: 30 * time.Second, Kind: KindTESValveStuck, Group: GroupAll, Value: math.NaN()},
		{At: 40 * time.Second, Kind: KindTESLeak, Group: GroupAll, Rate: 50000, Dur: 5 * time.Minute, Value: math.NaN()},
		{At: 50 * time.Second, Kind: KindChillerFail, Group: GroupAll, Frac: 0.7, Dur: time.Minute, Value: math.NaN()},
		{At: time.Minute, Kind: KindGridCurtail, Group: GroupAll, Frac: 0.8, Dur: 90 * time.Second, Value: math.NaN()},
		{At: 70 * time.Second, Kind: KindBreakerDerate, Group: GroupAll, Frac: 0.9, Value: math.NaN()},
		{At: 80 * time.Second, Kind: KindBreakerDerate, Group: 2, Frac: 0.85, Value: math.NaN()},
		{At: 90 * time.Second, Kind: KindSensorStale, Group: GroupAll, Sensor: SensorRoomTemp, Dur: 30 * time.Second, Value: math.NaN()},
		{At: 100 * time.Second, Kind: KindSensorDropout, Group: GroupAll, Sensor: SensorUPSSoC, Dur: 45 * time.Second, Value: math.NaN()},
		{At: 110 * time.Second, Kind: KindSensorNoise, Group: GroupAll, Sensor: SensorTESLevel, Sigma: 0.02, Dur: time.Minute, Value: math.NaN()},
		{At: 2 * time.Minute, Kind: KindSensorStuck, Group: GroupAll, Sensor: SensorRoomTemp, Dur: time.Minute, Value: 26},
		{At: 2 * time.Minute, Kind: KindSensorStuck, Group: GroupAll, Sensor: SensorRoomTemp, Dur: time.Minute, Value: math.NaN()},
	}
	for _, want := range events {
		line := want.String()
		s, err := Parse(strings.NewReader(line))
		if err != nil {
			t.Fatalf("%q did not parse back: %v", line, err)
		}
		if len(s.Events) != 1 {
			t.Fatalf("%q parsed to %d events", line, len(s.Events))
		}
		got := s.Events[0]
		// NaN != NaN breaks DeepEqual; compare the Value slot separately.
		if math.IsNaN(want.Value) != math.IsNaN(got.Value) {
			t.Fatalf("%q: NaN-ness of value diverged: %+v vs %+v", line, want, got)
		}
		if math.IsNaN(want.Value) {
			want.Value, got.Value = 0, 0
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%q round-tripped to %+v, want %+v", line, got, want)
		}
	}
}

func TestScheduleStringRoundTrips(t *testing.T) {
	spec := "10s battery-fail group=3\n1m grid-curtail frac=0.8 dur=90s\n"
	s, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(s.String()))
	if err != nil {
		t.Fatalf("schedule string %q did not parse: %v", s.String(), err)
	}
	if len(back.Events) != len(s.Events) {
		t.Fatalf("round trip %d events, want %d", len(back.Events), len(s.Events))
	}
}

func TestNewScheduleSortsAndValidates(t *testing.T) {
	s, err := NewSchedule([]Event{
		{At: time.Minute, Kind: KindBatteryFail, Group: 1},
		{At: time.Second, Kind: KindBatteryFail, Group: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Events[0].At != time.Second {
		t.Fatalf("events not sorted: %v", s.Events)
	}
	if _, err := NewSchedule([]Event{{At: time.Second, Kind: Kind(99)}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRandomDeterministicAndSurvivable(t *testing.T) {
	const horizon = 30 * time.Minute
	a := Random(42, horizon, 10)
	b := Random(42, horizon, 10)
	if !reflectSchedulesEqual(a, b) {
		t.Fatal("same seed produced different campaigns")
	}
	if reflectSchedulesEqual(a, Random(43, horizon, 10)) {
		t.Fatal("different seeds produced identical campaigns")
	}
	for seed := int64(0); seed < 200; seed++ {
		s := Random(seed, horizon, 10)
		if len(s.Events) == 0 {
			t.Fatalf("seed %d: empty campaign", seed)
		}
		var hasBattery bool
		for _, e := range s.Events {
			if err := e.Validate(); err != nil {
				t.Fatalf("seed %d: invalid event %+v: %v", seed, e, err)
			}
			if e.At < 0 || e.At > horizon {
				t.Fatalf("seed %d: event outside horizon: %+v", seed, e)
			}
			switch e.Kind {
			case KindBatteryFail, KindBatteryFade:
				hasBattery = true
			case KindGridCurtail:
				// Survivable bounds: shallow and short.
				if e.Frac < 0.7 || e.Dur > 3*time.Minute {
					t.Fatalf("seed %d: unsurvivable curtailment %+v", seed, e)
				}
			case KindChillerFail:
				if e.Frac < 0.6 {
					t.Fatalf("seed %d: unsurvivable chiller fault %+v", seed, e)
				}
			case KindBreakerDerate:
				if e.Frac < 0.8 {
					t.Fatalf("seed %d: unsurvivable derate %+v", seed, e)
				}
			}
		}
		if !hasBattery {
			t.Fatalf("seed %d: no capacity-reducing battery fault", seed)
		}
	}
}

func reflectSchedulesEqual(a, b *Schedule) bool {
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if math.IsNaN(x.Value) != math.IsNaN(y.Value) {
			return false
		}
		if math.IsNaN(x.Value) {
			x.Value, y.Value = 0, 0
		}
		if x != y {
			return false
		}
	}
	return true
}
