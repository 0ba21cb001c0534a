package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

func TestHealthEmptyIsHealthy(t *testing.T) {
	h := NewHealth(nil)
	rep := h.Evaluate()
	if rep.Status != Healthy || len(rep.Components) != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestHealthWorstComponentWins(t *testing.T) {
	h := NewHealth(nil)
	h.Register("a", func() CheckResult { return OK("fine") })
	h.Register("b", func() CheckResult { return DegradedResult("meh") })
	rep := h.Evaluate()
	if rep.Status != Degraded {
		t.Fatalf("status %v", rep.Status)
	}
	h.Register("c", func() CheckResult { return UnhealthyResult("down") })
	rep = h.Evaluate()
	if rep.Status != Unhealthy {
		t.Fatalf("status %v", rep.Status)
	}
	if rep.Components["b"].Detail != "meh" {
		t.Fatalf("components: %+v", rep.Components)
	}
	h.Deregister("c")
	h.Deregister("b")
	if rep := h.Evaluate(); rep.Status != Healthy {
		t.Fatalf("status after deregister: %v", rep.Status)
	}
}

func TestHealthExportsGauges(t *testing.T) {
	r := enabled(t)
	h := NewHealth(r)
	h.Register("pool", func() CheckResult { return DegradedResult("filling") })
	h.Evaluate()
	if v := r.Gauge("health.state").Value(); v != float64(Degraded) {
		t.Fatalf("health.state = %v", v)
	}
	if v := r.Gauge("health.component.pool").Value(); v != float64(Degraded) {
		t.Fatalf("component gauge = %v", v)
	}
}

func TestHealthStateJSONRoundTrip(t *testing.T) {
	for _, s := range []HealthState{Healthy, Degraded, Unhealthy} {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back HealthState
		if err := json.Unmarshal(raw, &back); err != nil || back != s {
			t.Fatalf("round trip %v -> %s -> %v (%v)", s, raw, back, err)
		}
	}
	var s HealthState
	if err := json.Unmarshal([]byte(`"sideways"`), &s); err == nil {
		t.Fatal("bad state parsed")
	}
}

func TestHeartbeat(t *testing.T) {
	hb := NewHeartbeat(time.Minute)
	now := time.Unix(1000, 0)
	hb.SetClock(func() time.Time { return now })

	if res := hb.Check(); res.State != Healthy {
		t.Fatalf("no-beat state: %+v", res)
	}
	hb.Beat()
	if res := hb.Check(); res.State != Healthy {
		t.Fatalf("fresh state: %+v", res)
	}
	now = now.Add(2 * time.Minute)
	if res := hb.Check(); res.State != Degraded {
		t.Fatalf("stale state: %+v", res)
	}
	hb.Beat()
	if res := hb.Check(); res.State != Healthy || hb.Beats() != 2 {
		t.Fatalf("re-beaten: %+v beats=%d", res, hb.Beats())
	}
}
