package health

import (
	"testing"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/tsdb"
)

// stampedStore is an in-memory store plus a helper that appends the
// registry's snapshot stamped at a chosen instant.
func stampedStore(t *testing.T, reg *telemetry.Registry) (*tsdb.DB, func(at time.Time)) {
	t.Helper()
	db, err := tsdb.Open("", tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db, func(at time.Time) {
		s := reg.Snapshot()
		s.UnixNs = at.UnixNano()
		if err := db.Append(tsdb.FromSnapshot(s)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrackerWithWindowSource(t *testing.T) {
	reg := telemetry.New(8)
	obj := Objective{Name: "degraded", Bad: "bad", Total: "total", Target: 0.99}
	db, stamp := stampedStore(t, reg)
	tr, err := NewTracker(time.Minute, []Objective{obj}, db, reg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	now := base
	tr.SetNow(func() time.Time { return now })

	bad, total := reg.Counter("bad"), reg.Counter("total")

	// t+0: baseline inside the window.
	total.Add(1000)
	stamp(base)
	// t+30s: +5 bad / +1000 total.
	bad.Add(5)
	total.Add(1000)
	now = base.Add(30 * time.Second)
	stamp(now)
	tr.Observe()

	r := tr.Report()
	st := statusByName(t, r, "degraded")
	if st.Bad != 5 || st.Total != 1000 {
		t.Fatalf("windowed bad/total = %d/%d, want 5/1000 (edges from the store)", st.Bad, st.Total)
	}
	if st.BurnRate < 0.49 || st.BurnRate > 0.51 {
		t.Fatalf("burn = %v, want 0.5", st.BurnRate)
	}
	if g := reg.Snapshot().Gauges["health.slo.burn.degraded"]; g < 0.49 || g > 0.51 {
		t.Fatalf("burn gauge = %v, want 0.5", g)
	}
	if r.Samples != 2 {
		t.Fatalf("Samples = %d, want 2 (t+0 and t+30s)", r.Samples)
	}

	// Advance past the window: the old baseline falls off and the newest
	// at-or-before edge moves up.
	now = base.Add(2 * time.Minute)
	bad.Add(1)
	total.Add(100)
	stamp(now)
	tr.Observe()
	r = tr.Report()
	st = statusByName(t, r, "degraded")
	// Edge before now-1m is the t+30s sample: window = +1 bad / +100 total.
	if st.Bad != 1 || st.Total != 100 {
		t.Fatalf("windowed bad/total after roll = %d/%d, want 1/100", st.Bad, st.Total)
	}

	// SpanMs and Samples reflect the store's edges: t+30s through t+2m.
	if r.SpanMs != (90 * time.Second).Milliseconds() {
		t.Fatalf("SpanMs = %d, want 90000", r.SpanMs)
	}
	if r.Samples != 2 {
		t.Fatalf("Samples after roll = %d, want 2 (t+30s and t+2m)", r.Samples)
	}
	// A point inside the window counts too.
	now = base.Add(150 * time.Second)
	stamp(now)
	if r = tr.Report(); r.Samples != 3 {
		t.Fatalf("Samples = %d, want 3 (t+30s, t+2m, t+2m30s)", r.Samples)
	}
}

func TestTrackerSourceSinglePointIsEmptyWindow(t *testing.T) {
	reg := telemetry.New(8)
	obj := Objective{Name: "b", Counter: "c", Budget: 10}
	db, stamp := stampedStore(t, reg)
	tr, err := NewTracker(time.Minute, []Objective{obj}, db, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("c").Add(7)
	stamp(time.Unix(1700000000, 0))
	// One point: both edges resolve to it, so the window is empty — a
	// freshly-started store never replays pre-history as burn.
	r := tr.Report()
	st := statusByName(t, r, "b")
	if st.Bad != 0 || st.BurnRate != 0 {
		t.Fatalf("single-point window scored bad=%d burn=%v, want empty", st.Bad, st.BurnRate)
	}
	if r.Samples != 1 || r.SpanMs != 0 {
		t.Fatalf("single-point window: samples=%d span=%dms, want 1 and 0", r.Samples, r.SpanMs)
	}
}

// TestTrackerEmptyStore: before the first point every objective scores
// as an empty window.
func TestTrackerEmptyStore(t *testing.T) {
	reg := telemetry.New(8)
	db, _ := stampedStore(t, reg)
	tr, err := NewTracker(time.Minute, []Objective{{Name: "b", Counter: "c", Budget: 10}}, db, reg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe()
	r := tr.Report()
	if st := statusByName(t, r, "b"); st.Bad != 0 || st.BurnRate != 0 || !st.Met {
		t.Fatalf("empty store scored %+v", st)
	}
	if r.Samples != 0 || r.SpanMs != 0 {
		t.Fatalf("empty store: samples=%d span=%dms, want 0 and 0", r.Samples, r.SpanMs)
	}
}
