package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// newTestHost wires a host fleet the way cmd/dcsprintd -fleet does: the
// manager first, then the host routing into it. cfg's Registry is replaced
// by one the host shares.
func newTestHost(t *testing.T, spec Spec, cfg service.Config) (*Host, *service.Manager, *tsdb.Store) {
	t.Helper()
	cfg.Registry = telemetry.NewRegistry()
	store := tsdb.New(tsdb.Options{MaxSeries: 4096})
	mgr := service.NewManager(cfg)
	h, err := NewHost(HostConfig{
		Spec:     spec,
		Registry: cfg.Registry,
		Flight:   telemetry.NewFlightRecorder(service.NumShards, 64),
		Store:    store,
	}, mgr)
	if err != nil {
		mgr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mgr.Close()
		h.Close()
	})
	return h, mgr, store
}

func streamingSpec() service.ScenarioSpec {
	return service.ScenarioSpec{Name: "fleet-test"}
}

func TestHostRoutesAndSpills(t *testing.T) {
	// 4 DCs, hot dc-00 with one admission slot: the round-robin homes a
	// quarter of the sessions on it, so everything past its first must
	// spill to a sibling.
	h, mgr, _ := newTestHost(t, Spec{DCs: 4, Seed: 1, Replicas: 1, HotDC: 0, AdmitCap: 64}, service.Config{})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}

	var spills int
	byDC := map[string]int{}
	for i := 0; i < 12; i++ {
		rs, err := c.Create(context.Background(), streamingSpec())
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		byDC[rs.DC]++
		if rs.Spilled {
			spills++
			if rs.DC == rs.SpilledFrom {
				t.Fatalf("spill to itself: %+v", rs)
			}
			if rs.TransferMs <= 0 {
				t.Fatalf("spill paid no transfer latency: %+v", rs)
			}
		}
		if len(rs.Replicas) != 1 {
			t.Fatalf("replicas = %v, want 1", rs.Replicas)
		}
		if rs.Replicas[0] == rs.DC {
			t.Fatalf("replica co-located with primary: %+v", rs)
		}
	}
	if spills < 2 {
		t.Fatalf("hot DC produced %d spills, want >= 2 (%v)", spills, byDC)
	}
	if byDC["dc-00"] > 1 {
		t.Fatalf("hot DC served %d sessions past its 1-slot cap", byDC["dc-00"])
	}
	if got := len(mgr.List()); got != 12 {
		t.Fatalf("manager hosts %d sessions, want 12", got)
	}

	st := h.Status()
	if st.Sessions != 12 || st.Routed != 12 || int(st.Spilled) != spills {
		t.Fatalf("status %+v, want 12 sessions, 12 routed, %d spilled", st, spills)
	}
	for _, dc := range st.DCs {
		if dc.ID == "dc-00" && !dc.Hot {
			t.Fatalf("dc-00 not marked hot: %+v", dc)
		}
	}
}

func TestHostStatusEndpointAndSeries(t *testing.T) {
	h, _, store := newTestHost(t, Spec{DCs: 3, Seed: 2}, service.Config{})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	if _, err := c.Create(context.Background(), streamingSpec()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DCs) != 3 || st.Sessions != 1 {
		t.Fatalf("status %+v", st)
	}
	// A fold labels per-DC series into the store.
	h.fold(time.Now())
	want := tsdb.DCSeriesName(tsdb.SeriesFleetSessions, "dc-00")
	if s := store.Lookup(want); s == nil || s.Appended() == 0 {
		t.Fatalf("series %q never appended; store has %v", want, store.Names())
	}
}

// TestHostFoldFeedsServingLedger: the serving DC's ledger reads its
// session's plant state once a fold has read the probes, and only then;
// the DCs serving nothing keep fresh ledgers.
func TestHostFoldFeedsServingLedger(t *testing.T) {
	h, mgr, _ := newTestHost(t, Spec{DCs: 3, Seed: 7}, service.Config{})
	rs, err := h.CreateSession(streamingSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := mgr.Step(rs.ID, 2); err != nil {
			t.Fatal(err)
		}
	}
	fresh := FreshLedger("", 0, 0)
	isFresh := func(dc DCStatus) bool {
		return dc.BreakerStress == 0 && dc.UPSSoC == fresh.UPSSoC &&
			dc.ThermalMarginC == fresh.ThermalMarginC && !dc.Dead
	}
	for _, dc := range h.Status().DCs {
		if !isFresh(dc) {
			t.Fatalf("%s read plant state before any fold: %+v", dc.ID, dc)
		}
	}
	h.fold(time.Now())
	for _, dc := range h.Status().DCs {
		switch {
		case dc.ID == rs.DC && !(dc.BreakerStress > 0 || dc.UPSSoC < 1):
			t.Fatalf("serving %s shows no sprint after a fold: %+v", dc.ID, dc)
		case dc.ID != rs.DC && !isFresh(dc):
			t.Fatalf("idle %s lost its fresh ledger: %+v", dc.ID, dc)
		}
	}
}

// TestHostFoldSetsSessionGaugeWithoutStore folds a host built without a
// time-series store (dcsprintd -tsdb-mem 0): the per-DC session gauge must
// still count the serving DC's session, and 0 for the idle one.
func TestHostFoldSetsSessionGaugeWithoutStore(t *testing.T) {
	reg := telemetry.NewRegistry()
	mgr := service.NewManager(service.Config{Registry: reg})
	h, err := NewHost(HostConfig{Spec: Spec{DCs: 2, Seed: 5}, Registry: reg}, mgr)
	if err != nil {
		mgr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mgr.Close()
		h.Close()
	})
	rs, err := h.CreateSession(streamingSpec())
	if err != nil {
		t.Fatal(err)
	}
	h.fold(time.Now())
	for _, dc := range h.Status().DCs {
		want := 0.0
		if dc.ID == rs.DC {
			want = 1
		}
		g := reg.GaugeWith("dcsprint_fleet_dc_sessions", "Live sessions served by the DC", telemetry.Labels{"dc": dc.ID})
		if got := g.Value(); got != want {
			t.Fatalf("dcsprint_fleet_dc_sessions{dc=%q} = %v after a fold, want %v", dc.ID, got, want)
		}
	}
}

func TestHostRejectsWhenFleetExhausted(t *testing.T) {
	// Every DC capped at 1 and filled: the next create must 429 with a
	// Retry-After hint rather than land anywhere.
	h, _, _ := newTestHost(t, Spec{DCs: 2, Seed: 3, AdmitCap: 1}, service.Config{})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, MaxAttempts: 1}
	for i := 0; i < 2; i++ {
		if _, err := c.Create(context.Background(), streamingSpec()); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Create(context.Background(), streamingSpec())
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("want HTTP 429 rejection, got %v", err)
	}
	resp, err := http.Post(srv.URL+"/v1/fleet/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHostCreateBodies: POST /v1/fleet/sessions takes exactly one JSON
// document, like the service's own create. Whitespace may follow it;
// anything else is a 400, and a body over the 64 MiB cap is a 413. A
// rejected body opens no session.
func TestHostCreateBodies(t *testing.T) {
	h, mgr, _ := newTestHost(t, Spec{DCs: 2, Seed: 6}, service.Config{})
	handler := h.Handler()
	live := 0
	for _, c := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"trailing whitespace", strings.NewReader("{} \n\t\r\n"), http.StatusCreated},
		{"trailing garbage", strings.NewReader("{} trailing garbage"), http.StatusBadRequest},
		{"second document", strings.NewReader("{}{}"), http.StatusBadRequest},
		{"trailing brace", strings.NewReader("{}}"), http.StatusBadRequest},
		{"not json", strings.NewReader("once upon a time"), http.StatusBadRequest},
		{"oversize", io.MultiReader(strings.NewReader("{}"), io.LimitReader(spaces{}, 64<<20)),
			http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/sessions", c.body))
		if rec.Code != c.want {
			t.Fatalf("%s: status %d (%s), want %d", c.name, rec.Code, rec.Body, c.want)
		}
		if c.want == http.StatusCreated {
			live++
		} else if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Fatalf("%s: reply %q carries no error", c.name, rec.Body)
		}
		if n := len(mgr.List()); n != live {
			t.Fatalf("%s: %d live sessions, want %d", c.name, n, live)
		}
	}
}

func TestHostDropFreesSlot(t *testing.T) {
	h, mgr, _ := newTestHost(t, Spec{DCs: 1, Seed: 4, AdmitCap: 1}, service.Config{})
	rs, err := h.CreateSession(streamingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateSession(streamingSpec()); err == nil {
		t.Fatal("second create fit a 1-slot fleet")
	}
	if _, err := mgr.Finish(rs.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateSession(streamingSpec()); err != nil {
		t.Fatalf("slot not freed after finish: %v", err)
	}
}

func TestHostEvictionFreesSlot(t *testing.T) {
	h, mgr, _ := newTestHost(t, Spec{DCs: 1, Seed: 4, AdmitCap: 1},
		service.Config{IdleTTL: 50 * time.Millisecond})
	if _, err := h.CreateSession(streamingSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateSession(streamingSpec()); err == nil {
		t.Fatal("second create fit a 1-slot fleet")
	}
	for deadline := time.Now().Add(5 * time.Second); len(mgr.List()) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
	}
	if _, err := h.CreateSession(streamingSpec()); err != nil {
		t.Fatalf("slot not freed after eviction: %v", err)
	}
}

func TestHostProfileOverridesSpec(t *testing.T) {
	h, mgr, _ := newTestHost(t, Spec{DCs: 1, Seed: 5}, service.Config{})
	profile := h.Profiles()[0]
	rs, err := h.CreateSession(streamingSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The session inherits the DC's facility: its snapshot spec carries the
	// profile's servers.
	doc, err := mgr.Snapshot(rs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Spec.Servers != profile.Servers {
		t.Fatalf("session servers %d, want profile's %d", doc.Spec.Servers, profile.Servers)
	}
	if doc.Spec.DCHeadroom != profile.Headroom || doc.Spec.TESMinutes != profile.TESMinutes {
		t.Fatalf("spec %+v did not inherit profile %+v", doc.Spec, profile)
	}
}
