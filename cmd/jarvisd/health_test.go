package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jarvis/internal/health"
	"jarvis/internal/replica"
	"jarvis/internal/rl"
	"jarvis/internal/telemetry"
)

// waitUntil polls cond until it returns true or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// getAlerts fetches and decodes /debug/alerts.
func getAlerts(t *testing.T, srv *server) alertsDocument {
	t.Helper()
	code, body := httpGet(t, srv, "/debug/alerts")
	if code != http.StatusOK {
		t.Fatalf("/debug/alerts status = %d: %s", code, body)
	}
	var doc alertsDocument
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/alerts is not valid JSON: %v", err)
	}
	return doc
}

func hasFiring(doc alertsDocument, rule string) bool {
	for _, a := range doc.Firing {
		if a.Rule == rule {
			return true
		}
	}
	return false
}

// hasTransition reports whether the engine's history carries a rule
// transition into state — unlike the instantaneous Firing set, history
// cannot be missed by a poll that lands between fire and resolve.
func hasTransition(doc alertsDocument, rule, state string) bool {
	for _, tr := range doc.History {
		if tr.Rule == rule && tr.State == state {
			return true
		}
	}
	return false
}

// readAlertLog parses the JSONL alert log into transitions.
func readAlertLog(t *testing.T, path string) []health.Transition {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read alert log: %v", err)
	}
	var out []health.Transition
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var tr health.Transition
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("alert log line %q: %v", line, err)
		}
		out = append(out, tr)
	}
	return out
}

// assertLoggedLifecycle requires the alert log to carry a firing record and
// a later resolved record for rule.
func assertLoggedLifecycle(t *testing.T, path, rule string) {
	t.Helper()
	firedAt, resolvedAt := -1, -1
	for i, tr := range readAlertLog(t, path) {
		if tr.Rule != rule {
			continue
		}
		switch tr.State {
		case "firing":
			if firedAt < 0 {
				firedAt = i
			}
		case "resolved":
			resolvedAt = i
		}
	}
	if firedAt < 0 || resolvedAt < 0 || resolvedAt < firedAt {
		t.Fatalf("alert log lifecycle for %q: firing at %d, resolved at %d, want firing then resolved", rule, firedAt, resolvedAt)
	}
}

// TestAlertSmokeHairTrigger is the CI alerting smoke (make alerts): a
// hair-trigger rule on request traffic must fire while traffic flows,
// surface in /debug/alerts and /healthz, resolve once traffic stops, and
// leave both lifecycle edges in the JSONL alert log.
func TestAlertSmokeHairTrigger(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "alerts.jsonl")
	const rule = "any-state-traffic"
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		HealthInterval: 20 * time.Millisecond,
		AlertLogPath:   logPath,
		AlertRules: []health.Rule{{
			Name:   rule,
			Metric: `jarvisd.requests{op="state"}`,
			Delta:  true,
			Op:     ">", Value: 0,
			For: 1, ClearFor: 2,
			Description: "state requests arrived since the previous evaluation",
		}},
	})

	// Keep traffic flowing so every evaluation window sees a positive
	// delta, until the engine reports the alert firing.
	waitUntil(t, 10*time.Second, "hair-trigger alert to fire", func() bool {
		for i := 0; i < 3; i++ {
			if resp := srv.handle(request{Op: "state"}); !resp.OK {
				t.Fatalf("state: %+v", resp)
			}
		}
		return hasFiring(getAlerts(t, srv), rule)
	})

	// The firing alert must be visible on the health surface too.
	code, body := httpGet(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d with only an info-level alert: %s", code, body)
	}
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	found := false
	for _, a := range h.AlertsFiring {
		found = found || a.Rule == rule
	}
	if !found {
		t.Fatalf("/healthz does not list the firing alert: %+v", h.AlertsFiring)
	}
	if len(h.SLOBurn) == 0 {
		t.Errorf("/healthz carries no SLO burn rates: %+v", h)
	}

	// Traffic stops; after ClearFor clean evaluations the alert resolves.
	waitUntil(t, 10*time.Second, "alert to resolve after traffic stops", func() bool {
		return !hasFiring(getAlerts(t, srv), rule)
	})
	assertLoggedLifecycle(t, logPath, rule)

	doc := getAlerts(t, srv)
	if doc.Stats.Fired < 1 || doc.Stats.Resolved < 1 || doc.Stats.Evaluations < 2 {
		t.Errorf("engine stats did not record the lifecycle: %+v", doc.Stats)
	}

	// /debug/slo serves the tracker's report on the same cadence.
	code, body = httpGet(t, srv, "/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo status = %d: %s", code, body)
	}
	var rep health.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/debug/slo is not valid JSON: %v", err)
	}
	if len(rep.Objectives) == 0 || rep.Samples == 0 {
		t.Errorf("/debug/slo report is empty: %+v", rep)
	}
}

// TestReplicationLagAlertSmoke: on a daemon started with -follow, the
// replication lag gauge must feed the replication-lag SLO and the built-in
// default rule must fire when the standby trails the primary past its lag
// budget — and resolve once it catches back up. The primary here is fake:
// a bare TCP listener speaking only heartbeats, whose advertised position
// the test moves at will.
func TestReplicationLagAlertSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var farAhead atomic.Bool
	farAhead.Store(true)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var buf []byte
				for {
					var at replica.Counters
					if farAhead.Load() {
						// Far past any position the follower could hold:
						// lag ≈ 100000 records against a budget of 256.
						at = replica.Counters{Events: 100000}
					}
					buf = replica.AppendHeartbeat(buf[:0], at)
					if _, err := c.Write(buf); err != nil {
						return
					}
					select {
					case <-done:
						return
					case <-time.After(50 * time.Millisecond):
					}
				}
			}(conn)
		}
	}()

	logPath := filepath.Join(t.TempDir(), "alerts.jsonl")
	const rule = "replication-lag"
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2,
		HealthInterval: 20 * time.Millisecond,
		AlertLogPath:   logPath,
		FollowAddr:     ln.Addr().String(),
		PromoteAfter:   -1, // heartbeats flow, but never promote under the test
	})

	// The default rule set carries replication-lag; it must fire once the
	// burn rate has been over 1 for its For window.
	waitUntil(t, 15*time.Second, "replication-lag alert to fire", func() bool {
		return hasTransition(getAlerts(t, srv), rule, "firing")
	})

	// The gauge itself is exported, and the burn rate and replication role
	// surface on /healthz.
	if lag := telemetry.Default.Snapshot().Gauges["jarvisd.replica.lag.records"]; lag <= 0 {
		t.Errorf("jarvisd.replica.lag.records gauge = %v, want > 0 while trailing", lag)
	}
	_, body := httpGet(t, srv, "/healthz")
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if h.Role != roleFollower {
		t.Errorf("/healthz role = %q, want %q", h.Role, roleFollower)
	}
	if h.Replication == nil || !h.Replication.Connected {
		t.Errorf("/healthz replication block missing or disconnected: %+v", h.Replication)
	}
	if burn := h.SLOBurn[rule]; burn <= 1 {
		t.Errorf("/healthz sloBurn[%q] = %v, want > 1 while trailing", rule, burn)
	}

	// The fake primary drops back to the follower's position: lag reads
	// zero and the alert resolves on its ClearFor cadence.
	farAhead.Store(false)
	waitUntil(t, 15*time.Second, "replication-lag alert to resolve", func() bool {
		doc := getAlerts(t, srv)
		return hasTransition(doc, rule, "resolved") && !hasFiring(doc, rule)
	})
	assertLoggedLifecycle(t, logPath, rule)
}

// TestAlertsDisabled: with alerting off, the endpoints 404 and the request
// path never consults the engine.
func TestAlertsDisabled(t *testing.T) {
	srv := startDebugTestServer(t, serverConfig{
		Seed: 1, LearningDays: 2, Episodes: 2, AlertingOff: true,
	})
	for _, path := range []string{"/debug/alerts", "/debug/slo"} {
		if code, _ := httpGet(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s status = %d with alerting off, want 404", path, code)
		}
	}
	code, body := httpGet(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d: %s", code, body)
	}
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if h.AlertsFiring != nil || h.SLOBurn != nil || h.Shadow != nil {
		t.Errorf("/healthz carries health-subsystem fields with alerting off: %+v", h)
	}
}

// TestDriftAlertRollsBackAndResolves is the acceptance e2e: a deliberately
// corrupted live Q must raise the policy-drift alert within one shadow
// evaluation cycle, the alert's rollback arm must trip the watchdog into a
// checkpoint restore, and once the restored policy shadows cleanly the
// alert must resolve — with both edges in the alert log.
func TestDriftAlertRollsBackAndResolves(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.ShadowEvery = 2 // one evaluation per 8 scripted events
	cfg.HealthInterval = 25 * time.Millisecond
	cfg.AlertLogPath = filepath.Join(dir, "alerts.jsonl")
	const rule = "policy-drift"
	cfg.AlertRules = []health.Rule{{
		Name:   rule,
		Metric: health.GaugeDivergenceRate,
		Op:     ">", Value: 0.5,
		For: 1, ClearFor: 1,
		Severity:    health.SeverityCritical,
		Rollback:    true,
		Description: "shadow evaluation diverges from the checkpoint trajectory",
	}}
	srv := startDebugTestServer(t, cfg)

	// Recorded recommendations are the shadow comparison's denominator:
	// lay some down, then wait for a completed clean evaluation so the
	// healthy baseline is established before the corruption.
	feedMixedTraffic(t, srv, 48)
	waitUntil(t, 30*time.Second, "a clean shadow evaluation", func() bool {
		feedEvents(t, srv, 8)
		doc := getAlerts(t, srv)
		return doc.Shadow != nil && doc.Shadow.Err == "" && doc.Shadow.Recommends > 0
	})
	if doc := getAlerts(t, srv); doc.Shadow.DivergenceRate > 0.5 {
		t.Fatalf("healthy daemon already over the drift threshold: %+v", doc.Shadow)
	}

	// Corrupt the live policy: rewrite the Q row at the state and minute
	// every recorded recommendation replays at (the event script cycles
	// back to the initial state; the minute is pinned) until the argmax
	// provably lands on a different action. 1e4 is finite and below the
	// watchdog's own divergence thresholds (worst-case TD loss 1e8 <
	// MaxLoss 1e9), so only the shadow evaluator can catch this — and it
	// survives many online TD updates eroding it before a capture lands.
	srv.mu.Lock()
	recState := srv.home.InitialState()
	base, err := srv.sys.RecommendDecision(recState, 600)
	if err != nil {
		srv.mu.Unlock()
		t.Fatalf("baseline recommendation: %v", err)
	}
	baseAction := srv.home.Env.FormatAction(base.Action)
	tq, ok := srv.sys.Agent().Q().(*rl.TableQ)
	if !ok {
		srv.mu.Unlock()
		t.Fatalf("daemon Q function is %T, want *rl.TableQ", srv.sys.Agent().Q())
	}
	width := len(tq.Q(recState, 600))
	noop := srv.sys.Agent().Minis().NoOpIndex()
	diverted := false
	for m := 0; m < width && !diverted; m++ {
		if m == noop {
			continue
		}
		if _, err := tq.Update([]rl.Experience{{S: recState, T: 600, Minis: []int{m}}},
			[]float64{1e4}); err != nil {
			srv.mu.Unlock()
			t.Fatalf("poison mini %d: %v", m, err)
		}
		// The poison writes the Q table behind the System's back, so it
		// owes the compiled cache the invalidation every writer owes it;
		// without it the table keeps serving the pre-poison decision.
		srv.sys.CompiledPolicy().Invalidate()
		d, err := srv.sys.RecommendDecision(recState, 600)
		if err != nil {
			srv.mu.Unlock()
			t.Fatalf("poisoned recommendation: %v", err)
		}
		diverted = srv.home.Env.FormatAction(d.Action) != baseAction
	}
	srv.mu.Unlock()
	if !diverted {
		t.Fatal("could not corrupt the policy into recommending differently")
	}

	// Events (never recommendations: the corrupted policy must be caught
	// by shadow replay, not by serving) drive learn steps, learn steps
	// drive shadow evaluations, and the divergent report fires the alert.
	// The whole loop — fire, rollback, clean shadow, resolve — can close
	// within two engine ticks, so the waits read the transition history
	// rather than racing the instantaneous firing set.
	waitUntil(t, 30*time.Second, "drift alert to fire", func() bool {
		feedEvents(t, srv, 8)
		return hasTransition(getAlerts(t, srv), rule, "firing")
	})

	// The rollback arm trips the watchdog, which restores the newest
	// checkpoint generation.
	waitUntil(t, 10*time.Second, "watchdog rollback", func() bool {
		_, body := httpGet(t, srv, "/healthz")
		var h healthStatus
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("/healthz is not valid JSON: %v", err)
		}
		return h.Watchdog.Rollbacks >= 1
	})

	// The restored policy replays the recorded trajectory faithfully, so
	// the next shadow evaluations report low divergence and the alert
	// resolves on its ClearFor cadence.
	waitUntil(t, 30*time.Second, "drift alert to resolve after rollback", func() bool {
		feedEvents(t, srv, 8)
		doc := getAlerts(t, srv)
		return hasTransition(doc, rule, "resolved") && !hasFiring(doc, rule)
	})
	assertLoggedLifecycle(t, cfg.AlertLogPath, rule)

	// The daemon serves on, un-degraded, off the restored generation.
	if resp := srv.handle(request{Op: "recommend"}); !resp.OK || resp.Degraded != 0 {
		t.Fatalf("post-rollback recommend: %+v", resp)
	}
}
