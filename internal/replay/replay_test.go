package replay

import (
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"jarvis/internal/wal"
)

// testConfig keeps the learning phase cheap; every sub-run of these tests
// must use the identical value or divergence is by construction.
var testConfig = Config{Seed: 1, LearningDays: 2, Episodes: 2, OnlineTrainEvery: 4}

// buildTrained builds and trains one fresh asset set under testConfig.
func buildTrained(t *testing.T) *Assets {
	t.Helper()
	a, err := Build(testConfig)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := a.Train(); err != nil {
		t.Fatalf("train: %v", err)
	}
	return a
}

// synthesizeWAL records a scripted run — n legal device events, each with
// its learning transition, and one recommendation after every 4th — into a
// fresh WAL directory by driving a Home's live ops over its own freshly
// trained assets, the code the daemon serves through. It returns that live
// Home, so a test can compare where replay ends against where serving
// ended.
func synthesizeWAL(t *testing.T, dir string, n int) *Home {
	t.Helper()
	return synthesizeWALWith(t, dir, n, Record.Encode)
}

// synthesizeWALWith is synthesizeWAL with the record payload encoder
// chosen by the caller.
func synthesizeWALWith(t *testing.T, dir string, n int, encode func(Record) ([]byte, error)) *Home {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncOnRotate})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	defer w.Close()
	a := buildTrained(t)
	h := NewHome(a, testConfig)
	h.Journal = func(rec Record) {
		t.Helper()
		b, err := encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatalf("wal append: %v", err)
		}
	}
	script := []struct{ device, action string }{
		{"tv", "power_on"}, {"fridge", "open_door"},
		{"tv", "power_off"}, {"fridge", "close_door"},
	}
	e := a.Home.Env
	for i := 0; i < n; i++ {
		sc := script[i%len(script)]
		di, ok := e.DeviceIndex(sc.device)
		if !ok {
			t.Fatalf("no device %q", sc.device)
		}
		act, ok := e.Device(di).ActionID(sc.action)
		if !ok {
			t.Fatalf("%s has no action %q", sc.device, sc.action)
		}
		if _, err := h.Event(nil, 600, di, act, true); err != nil {
			t.Fatalf("event %d (%s %s) illegal from %v: %v", i, sc.device, sc.action, h.State, err)
		}
		if i%4 == 3 {
			if _, err := h.Recommend(nil, 600, nil); err != nil {
				t.Fatalf("recommend after event %d: %v", i, err)
			}
		}
	}
	return h
}

// applyWAL feeds every record in dir to h through Apply — the path boot
// recovery and follower apply take.
func applyWAL(t *testing.T, h *Home, dir string) {
	t.Helper()
	c, err := wal.OpenCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for {
		b, err := c.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Apply(rec, false); err != nil {
			t.Fatalf("apply %s #%d: %v", rec.K, rec.N, err)
		}
	}
}

// assertSameHome requires two Homes to hold the same environment state,
// counters and Q function.
func assertSameHome(t *testing.T, what string, want, got *Home) {
	t.Helper()
	if !reflect.DeepEqual(want.State, got.State) || want.Counters != got.Counters {
		t.Errorf("%s: state %v counters %+v, want state %v counters %+v",
			what, got.State, got.Counters, want.State, want.Counters)
	}
	wfp, err := want.a.Sys.QFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	gfp, err := got.a.Sys.QFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if wfp != gfp {
		t.Errorf("%s: Q fingerprint %s, want %s", what, gfp, wfp)
	}
}

// writeLog persists a replayed decision stream as the daemon's decision
// log would have recorded it (through the rotating writer, so the read
// side crosses file seams), dropping the last omitTail decisions to model
// a crash losing the buffered tail.
func writeLog(t *testing.T, path string, ds []Decision, omitTail int) {
	t.Helper()
	l, err := OpenDecisionLog(path, LogOptions{MaxBytes: 600, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds[:len(ds)-omitTail] {
		err := l.Record(LoggedDecision{
			UnixNs: int64(i), Kind: d.Kind, Minute: d.Minute, State: d.State,
			Action: d.Action, Q: d.Q, Degraded: d.Degraded, Verdict: d.Verdict,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayerIsSelfConsistent is the engine's determinism contract, with
// no daemon in the loop: a Home's live ops record a WAL; replaying it once
// records a decision stream, then Verify — which rebuilds everything from
// scratch — must reproduce that stream bit for bit, and a crash-truncated
// log must verify only under AllowTruncatedTail. The live Home, the
// replayer, and a fresh Home fed the WAL through Apply (the boot-recovery
// and follower path) must all end in the same state.
func TestReplayerIsSelfConsistent(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	live := synthesizeWAL(t, walDir, 32)
	a1 := buildTrained(t)

	r1 := NewReplayer(a1, testConfig)
	if err := r1.Run(walDir); err != nil {
		t.Fatalf("replay: %v", err)
	}
	d1 := r1.Decisions()
	st := r1.Stats()
	if st.Events != 32 || st.Transitions != 32 || st.Recommends != 8 {
		t.Fatalf("stats = %+v, want 32 events, 32 transitions, 8 recommends", st)
	}
	if len(d1) != 40 {
		t.Fatalf("replay emitted %d decisions, want 40 (32 events + 8 recommends)", len(d1))
	}
	if st.LearnSteps == 0 {
		t.Fatal("no online learn steps ran; the determinism claim would be vacuous")
	}
	assertSameHome(t, "replayer vs live", live, r1.h)
	recovered := NewHome(buildTrained(t), testConfig)
	applyWAL(t, recovered, walDir)
	assertSameHome(t, "Apply-fed Home vs live", live, recovered)
	fp1, err := a1.Sys.QFingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Verify rebuilds its own assets from the same Config, re-trains, and
	// re-replays: the regenerated stream must match the recorded one.
	logPath := filepath.Join(dir, "decisions.log")
	writeLog(t, logPath, d1, 0)
	rep, err := Verify(VerifyOptions{
		Config:      testConfig,
		Source:      Source{WALDir: walDir},
		DecisionLog: logPath,
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Match {
		t.Fatalf("independent rebuild diverged: %+v", rep.Divergence)
	}
	if rep.Compared != len(d1) || rep.TailLoss != 0 {
		t.Errorf("compared %d with tail loss %d, want all %d and none lost", rep.Compared, rep.TailLoss, len(d1))
	}
	if rep.QFingerprint != fp1 {
		t.Errorf("final Q fingerprints differ (%s vs %s): replay is not deterministic", rep.QFingerprint, fp1)
	}

	// A log that lost its buffered tail to a crash: rejected by default,
	// tolerated (and quantified) under AllowTruncatedTail.
	shortPath := filepath.Join(dir, "short.log")
	writeLog(t, shortPath, d1, 3)
	rep, err = Verify(VerifyOptions{
		Config:      testConfig,
		Source:      Source{WALDir: walDir},
		DecisionLog: shortPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match || rep.Divergence == nil || rep.Divergence.Reason != "missing-recorded" {
		t.Fatalf("truncated log passed strict verify: %+v", rep)
	}
	rep, err = Verify(VerifyOptions{
		Config:             testConfig,
		Source:             Source{WALDir: walDir},
		DecisionLog:        shortPath,
		AllowTruncatedTail: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match || rep.TailLoss != 3 || rep.Compared != len(d1)-3 {
		t.Fatalf("tolerant verify: match=%v tailLoss=%d compared=%d, want match with 3 lost over %d",
			rep.Match, rep.TailLoss, rep.Compared, len(d1)-3)
	}
}

// TestForkEmitsAlignedTail pins the fork contract: a replay forked at
// event k with no mutation emits exactly the tail of the full stream —
// which is what makes a what-if baseline and variant comparable
// position by position.
func TestForkEmitsAlignedTail(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	synthesizeWAL(t, walDir, 24)
	a1 := buildTrained(t)
	r1 := NewReplayer(a1, testConfig)
	if err := r1.Run(walDir); err != nil {
		t.Fatal(err)
	}
	d1 := r1.Decisions()

	a2 := buildTrained(t)
	r2 := NewReplayer(a2, testConfig)
	r2.ForkAt(13, nil)
	if err := r2.Run(walDir); err != nil {
		t.Fatal(err)
	}
	d2 := r2.Decisions()
	if len(d2) == 0 || len(d2) >= len(d1) {
		t.Fatalf("forked replay emitted %d decisions, want a strict tail of %d", len(d2), len(d1))
	}
	if !reflect.DeepEqual(d2, d1[len(d1)-len(d2):]) {
		t.Fatalf("forked tail diverged from the full stream:\n got %+v\nwant %+v", d2, d1[len(d1)-len(d2):])
	}
	if got := r2.Stats().Decisions; got != len(d2) {
		t.Errorf("stats count %d decisions, stream has %d", got, len(d2))
	}
}
