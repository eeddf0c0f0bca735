package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jarvis/internal/health"
)

// getSLO fetches and decodes /debug/slo.
func getSLO(t *testing.T, srv *server) health.Report {
	t.Helper()
	code, body := httpGet(t, srv, "/debug/slo")
	if code != 200 {
		t.Fatalf("/debug/slo status = %d: %s", code, body)
	}
	var rep health.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/debug/slo is not valid JSON: %v", err)
	}
	return rep
}

func TestWindowPoints(t *testing.T) {
	for _, tc := range []struct {
		window, interval time.Duration
		want             int
	}{
		{10 * time.Minute, 5 * time.Second, 122},
		{100 * time.Millisecond, 30 * time.Millisecond, 6},
		{time.Second, time.Minute, 3},
	} {
		if got := windowPoints(tc.window, tc.interval); got != tc.want {
			t.Errorf("windowPoints(%v, %v) = %d, want %d", tc.window, tc.interval, got, tc.want)
		}
	}
}

// TestInMemoryHistory: without -tsdb the SLO tracker scores from an
// in-memory store capped at one window of points, /debug/slo counts its
// samples, and the on-disk surfaces stay off.
func TestInMemoryHistory(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		HealthInterval: 10 * time.Millisecond,
		SLOWindow:      100 * time.Millisecond,
	})
	if srv.ts == nil || srv.ts.Dir() != "" {
		t.Fatalf("want an in-memory store without -tsdb, got %v", srv.ts)
	}
	limit := windowPoints(100*time.Millisecond, 10*time.Millisecond)
	waitUntil(t, 10*time.Second, "the store to fill one window", func() bool {
		return srv.ts.Stats().Points >= limit
	})
	time.Sleep(50 * time.Millisecond)
	if n := srv.ts.Stats().Points; n > limit {
		t.Fatalf("in-memory store holds %d points, cap %d", n, limit)
	}
	if rep := getSLO(t, srv); rep.Samples < 2 || rep.SpanMs <= 0 {
		t.Fatalf("/debug/slo = samples %d span %dms, want a populated window", rep.Samples, rep.SpanMs)
	}
	if code, body := httpGet(t, srv, "/debug/tsdb"); code != 404 {
		t.Fatalf("/debug/tsdb without -tsdb: status %d: %s", code, body)
	}
	_, body := httpGet(t, srv, "/healthz")
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if h.TSDB != nil {
		t.Fatalf("/healthz carries a tsdb block without -tsdb: %+v", h.TSDB)
	}
}

// TestSLOSamplesWithTSDB: with -tsdb, /debug/slo counts the stored points
// in its window rather than reporting zero.
func TestSLOSamplesWithTSDB(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		HealthInterval: 10 * time.Millisecond,
		TSDBDir:        t.TempDir(),
	})
	waitUntil(t, 10*time.Second, "three stored points", func() bool {
		return srv.ts.Stats().Points >= 3
	})
	if rep := getSLO(t, srv); rep.Samples < 3 {
		t.Fatalf("/debug/slo samples = %d with %d stored points", rep.Samples, srv.ts.Stats().Points)
	}
}

// TestTSDBOpenFailureFallsBackToMemory: a -tsdb directory that cannot
// open leaves the daemon serving, with its SLO window in memory.
func TestTSDBOpenFailureFallsBackToMemory(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		HealthInterval: 10 * time.Millisecond,
		TSDBDir:        notDir,
	})
	if srv.ts == nil || srv.ts.Dir() != "" {
		t.Fatalf("want the in-memory fallback, got %v", srv.ts)
	}
	waitUntil(t, 10*time.Second, "a populated SLO window", func() bool {
		return getSLO(t, srv).Samples >= 2
	})
	if code, _ := httpGet(t, srv, "/debug/tsdb"); code != 404 {
		t.Fatalf("/debug/tsdb on the fallback store: status %d, want 404", code)
	}
}
