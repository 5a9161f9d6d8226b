package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderDefaults(t *testing.T) {
	f := NewFlightRecorder(0, 0)
	if len(f.rings) != 1 {
		t.Fatalf("%d shard rings, want 1", len(f.rings))
	}
	f.Record(-3, FlightEvent{Kind: EventEvict, Session: "s"})
	evs := f.Events()
	if len(evs) != 1 || evs[0].Shard != -3 {
		t.Fatalf("negative shard event = %+v, want kept with Shard=-3", evs)
	}
}

// TestFlightRecorderWraparound pins the ring semantics: once a shard's ring
// is full the oldest events are overwritten, Total keeps counting, and
// Events returns the survivors in sequence order.
func TestFlightRecorderWraparound(t *testing.T) {
	const per = 4
	f := NewFlightRecorder(2, per)
	for i := 0; i < 10; i++ {
		f.Record(0, FlightEvent{Kind: EventBackpressure, Detail: fmt.Sprintf("n%d", i)})
	}
	f.Record(1, FlightEvent{Kind: EventEvict, Detail: "other shard"})
	if got := f.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11", got)
	}
	evs := f.Events()
	if len(evs) != per+1 {
		t.Fatalf("retained %d events, want %d", len(evs), per+1)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of sequence order: %+v", evs)
		}
	}
	// Shard 0 must retain exactly the last `per` of its writes.
	want := []string{"n6", "n7", "n8", "n9"}
	var got []string
	for _, ev := range evs {
		if ev.Shard == 0 {
			got = append(got, ev.Detail)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("shard 0 retained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard 0 retained %v, want %v", got, want)
		}
	}
}

// TestFlightRecorderConcurrent hammers every shard's ring past wraparound
// from many goroutines while readers snapshot — run under -race this is the
// satellite coverage for the ring's locking.
func TestFlightRecorderConcurrent(t *testing.T) {
	const (
		shards  = 4
		per     = 8
		writers = 8
		each    = 200
	)
	f := NewFlightRecorder(shards, per)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Record(i%shards, FlightEvent{Kind: EventSlowStep, Detail: "x"})
				if i%32 == 0 {
					_ = f.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := f.Total(); got != writers*each {
		t.Fatalf("Total = %d, want %d", got, writers*each)
	}
	evs := f.Events()
	if len(evs) != shards*per {
		t.Fatalf("retained %d, want full rings %d", len(evs), shards*per)
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Seq == 0 || seen[ev.Seq] {
			t.Fatalf("duplicate or zero seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestFlightRecorderWriteText(t *testing.T) {
	f := NewFlightRecorder(1, 8)
	f.Record(0, FlightEvent{Kind: EventRestoreFail, Session: "s-9",
		Trace: "abc", Req: "abc.1", Detail: "corrupt snapshot"})
	var b strings.Builder
	if err := f.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"flight recorder: 1 retained of 1 total events",
		EventRestoreFail, "session=s-9", "trace=abc", "rid=abc.1", "corrupt snapshot",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
