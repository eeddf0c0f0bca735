package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jarvis/internal/replay"
	"jarvis/internal/wire"
)

// The SIGKILL crash harness: a real child daemon process is killed with no
// warning mid-online-training, then a successor boots on the victim's
// checkpoint directory and WAL. The recovered daemon must land in exactly
// the training state the victim died in — the same state a control daemon
// reaches by processing the same traffic without ever crashing.

// crashChildEnv carries the victim's working directory; its presence turns
// TestJarvisdChildProcess from a skip into the victim's body.
const crashChildEnv = "JARVISD_CRASH_CHILD_DIR"

// crashFollowEnv, when also set, starts the child as a hot standby
// following the primary at that address — the follower half of the
// failover harness. It self-promotes after two seconds of primary
// silence and exposes the debug listener so the harness can hit
// /debug/replay on the promoted daemon.
const crashFollowEnv = "JARVISD_FOLLOW_ADDR"

// crashNoDecisionsEnv, when set, starts the child without a decision log:
// every logged decision commits the journal first, so only a daemon
// without one commits whole served batches at once.
const crashNoDecisionsEnv = "JARVISD_NO_DECISIONS"

// TestJarvisdChildProcess is not a standalone test: it is the victim
// process the crash harness re-execs (test binary + -test.run). It serves
// a durable daemon and then blocks until the parent SIGKILLs it.
func TestJarvisdChildProcess(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash-harness victim body; driven by TestCrashRecoverySIGKILL")
	}
	cfg := durableConfig(dir)
	if os.Getenv(crashNoDecisionsEnv) != "" {
		cfg.DecisionLogPath = ""
	}
	if fa := os.Getenv(crashFollowEnv); fa != "" {
		cfg.FollowAddr = fa
		cfg.PromoteAfter = 2 * time.Second
		cfg.DebugAddr = "127.0.0.1:0"
	}
	srv, err := newServer(cfg)
	if err != nil {
		fmt.Printf("JARVISD_ERR=%v\n", err)
		os.Exit(1)
	}
	if err := srv.listen("127.0.0.1:0"); err != nil {
		fmt.Printf("JARVISD_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("JARVISD_ADDR=%s\n", srv.Addr())
	if da := srv.DebugAddr(); da != "" {
		fmt.Printf("JARVISD_DEBUG=%s\n", da)
	}
	select {} // hold the daemon up; the only way out is SIGKILL
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness re-execs the test binary")
	}
	const (
		preCrash  = 48 // enough accepted transitions for real learn steps
		postCrash = 12 // recovered life must stay in lockstep with control
	)
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestJarvisdChildProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start victim: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	var addr string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if v, ok := strings.CutPrefix(line, "JARVISD_ADDR="); ok {
			addr = v
			break
		}
		if v, ok := strings.CutPrefix(line, "JARVISD_ERR="); ok {
			t.Fatalf("victim failed to start: %s", v)
		}
	}
	if addr == "" {
		t.Fatalf("victim exited without announcing an address (scan err: %v)", scanner.Err())
	}

	// Drive acknowledged traffic into the victim. Every response arrives
	// only after the event is applied and journaled (fsync-per-record), so
	// acked means durable.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
	for i := 0; i < preCrash; i++ {
		req := eventScript[i%len(eventScript)]
		if resp := roundTrip(t, enc, dec, req); resp.Error != "" {
			t.Fatalf("victim event %d: %s", i, resp.Error)
		}
		// Interleave served recommendations so the WAL records a full
		// decision day — the post-crash replay verification re-executes
		// the policy at each one.
		if i%4 == 3 {
			if resp := roundTrip(t, enc, dec, request{Op: "recommend"}); !resp.OK {
				t.Fatalf("victim recommend after event %d: %s", i, resp.Error)
			}
		}
	}
	want := roundTrip(t, enc, dec, request{Op: "learnstate"})
	if !want.OK {
		t.Fatalf("victim learnstate: %s", want.Error)
	}
	if want.LearnSteps == 0 {
		t.Fatal("victim ran no learn steps; the crash would prove nothing")
	}

	// SIGKILL: no signal handler, no final checkpoint, no WAL reset.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill victim: %v", err)
	}
	cmd.Wait()
	conn.Close()

	// Before the successor reopens (and appends to) the victim's
	// artifacts, the offline engine must verify the recorded day exactly
	// as it died on disk. Every acked event is journaled, but the decision
	// log buffers writes — the active file's tail went down with the
	// process, and only rotation-sealed files are trustworthy. Those must
	// still verify bit for bit under AllowTruncatedTail.
	vcfg := durableConfig(dir)
	rep, err := replay.Verify(replay.VerifyOptions{
		Config:             replayConfig(vcfg),
		Source:             verifySource(vcfg),
		DecisionLog:        vcfg.DecisionLogPath,
		AllowTruncatedTail: true,
	})
	if err != nil {
		t.Fatalf("post-crash verify: %v", err)
	}
	if !rep.Match {
		t.Fatalf("victim's recorded decisions diverge from replay: %+v", rep.Divergence)
	}
	if rep.Compared == 0 {
		t.Fatal("no sealed decisions survived the crash; rotation is not covering the run")
	}

	// The successor boots on the victim's directories: restore the
	// post-training checkpoint, then replay the WAL.
	successor, err := newServer(durableConfig(dir))
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer successor.Close()
	if !successor.restored {
		t.Fatal("successor trained fresh; the victim's checkpoint is unusable")
	}
	assertSameLearnState(t, want, learnState(t, successor))

	// A control daemon that never crashed, fed the identical traffic,
	// must agree — before and after both keep living.
	control, err := newServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	defer control.Close()
	feedEvents(t, control, preCrash)
	assertSameLearnState(t, learnState(t, control), learnState(t, successor))

	feedEvents(t, successor, postCrash)
	feedEvents(t, control, postCrash)
	assertSameLearnState(t, learnState(t, control), learnState(t, successor))
}

// TestCrashRecoverySIGKILLBinaryBatched is the crash drill on the fast
// path: a binary client pipelines batches of one event and fifteen
// recommends into a child daemon at -wal-sync record with no decision log,
// so each coalesced batch is journaled with one commit and one fsync
// before its responses go out. The child is SIGKILLed while batches are
// in flight. Every acknowledged record must survive: the successor's
// event and recommend counters reach at least the acknowledged counts,
// its environment state is the one the acknowledged event responses
// reported, and its training state equals a never-crashed control's fed
// the same events.
func TestCrashRecoverySIGKILLBinaryBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness re-execs the test binary")
	}
	const (
		recsPerBatch = 15 // recommends pipelined behind each batch's event
		window       = 4  // batches written ahead of their responses
		killAfter    = 48 // acknowledged events before the SIGKILL
	)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.DecisionLogPath = ""
	control, err := newServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	defer control.Close()
	// The JSON event script, as binary requests.
	e := control.home.Env
	script := make([]wire.Request, len(eventScript))
	for i, req := range eventScript {
		di, _ := e.DeviceIndex(req.Device)
		act, _ := e.Device(di).ActionID(req.Action)
		script[i] = wire.Request{Op: wire.OpEvent, Device: uint16(di), Action: int16(act)}
	}

	victim := spawnChildDaemon(t, dir, "", crashNoDecisionsEnv+"=1")
	conn, err := net.Dial("tcp", victim.addr)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn)
	if _, err := conn.Write(wire.AppendHandshake(nil)); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if ack, err := r.ReadFrame(); err != nil || !wire.IsAck(ack) {
		t.Fatalf("handshake ack: %v", err)
	}

	// The writer keeps up to window batches unanswered; the reader counts
	// every acknowledged response and keeps each acked event's state.
	var sentEvents, sentRecs atomic.Int64
	slots := make(chan struct{}, window)
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var buf []byte
		for b := 0; ; b++ {
			select {
			case slots <- struct{}{}:
			case <-stopWriter:
				return
			}
			buf = wire.AppendRequest(buf[:0], script[b%len(script)])
			for i := 0; i < recsPerBatch; i++ {
				buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpRecommend})
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
			sentEvents.Add(1)
			sentRecs.Add(recsPerBatch)
		}
	}()
	var ackedRecs int
	var eventStates [][]uint8 // eventStates[i] = state acked for event #i+1
	var resp wire.Response
	for len(eventStates) < killAfter {
		for i := 0; i <= recsPerBatch; i++ {
			payload, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("victim response: %v", err)
			}
			if err := resp.Decode(payload); err != nil || !resp.OK() {
				t.Fatalf("victim response: %+v, %v", resp, err)
			}
			if i == 0 {
				eventStates = append(eventStates, append([]uint8(nil), resp.State...))
			} else {
				ackedRecs++
			}
		}
		<-slots
	}
	// Kill only once the writer has a batch out that no response has
	// acknowledged yet; the daemon may or may not have committed it.
	for deadline := time.Now().Add(10 * time.Second); sentEvents.Load() == int64(len(eventStates)); {
		if time.Now().After(deadline) {
			t.Fatal("the writer never got a batch in flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	inFlight := sentEvents.Load() - int64(len(eventStates))
	victim.sigkill(t)
	close(stopWriter)
	<-writerDone

	successor, err := newServer(cfg)
	if err != nil {
		t.Fatalf("successor: %v", err)
	}
	defer successor.Close()
	successor.mu.Lock()
	events, recs := successor.h.Events, successor.h.Recs
	state := successor.wireStateIDs()
	successor.mu.Unlock()
	acked := len(eventStates)
	t.Logf("acked %d events / %d recommends, %d batches in flight at the kill; successor replayed %d / %d",
		acked, ackedRecs, inFlight, events, recs)
	if events < acked || recs < ackedRecs {
		t.Fatalf("successor has %d events and %d recommends, below the %d and %d acknowledged",
			events, recs, acked, ackedRecs)
	}
	if events > int(sentEvents.Load()) || recs > int(sentRecs.Load()) {
		t.Fatalf("successor has %d events and %d recommends, more than the %d and %d sent",
			events, recs, sentEvents.Load(), sentRecs.Load())
	}
	// A committed but unacknowledged event leaves a state no response
	// reported; the script cycles every len(script) events, so the latest
	// acked event at the same point of the cycle reported it.
	want := events
	for want > acked {
		want -= len(script)
	}
	if !bytes.Equal(state, eventStates[want-1]) {
		t.Errorf("successor state %v after %d events, want %v (acknowledged for event %d)",
			state, events, eventStates[want-1], want)
	}
	feedEvents(t, control, events)
	assertSameLearnState(t, learnState(t, control), learnState(t, successor))
}
