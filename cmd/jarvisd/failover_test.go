package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"jarvis/internal/fault"
	"jarvis/internal/replay"
	"jarvis/internal/wal"
)

// The failover harness extends the SIGKILL crash drill across two
// processes: a real primary is killed with no warning while a hot standby
// streams its WAL, the standby must promote itself, and the promoted
// daemon must land within a bounded lost tail of a control daemon that
// processed the same traffic without any crash — with its own durability
// artifacts verifying bit for bit, exactly like a primary's would.

// childDaemon is one re-exec'd jarvisd victim (see TestJarvisdChildProcess).
type childDaemon struct {
	cmd   *exec.Cmd
	addr  string
	debug string
}

// spawnChildDaemon re-execs the test binary as a durable daemon rooted at
// dir. A non-empty followAddr starts it as a hot standby of that primary
// (2s auto-promote, debug listener on) and waits for the debug banner too.
// env adds KEY=value settings to the child's environment.
func spawnChildDaemon(t *testing.T, dir, followAddr string, env ...string) *childDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestJarvisdChildProcess$", "-test.count=1")
	cmd.Env = append(append(os.Environ(), crashChildEnv+"="+dir), env...)
	if followAddr != "" {
		cmd.Env = append(cmd.Env, crashFollowEnv+"="+followAddr)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child daemon: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	c := &childDaemon{cmd: cmd}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if v, ok := strings.CutPrefix(line, "JARVISD_ADDR="); ok {
			c.addr = v
			if followAddr == "" {
				break // a primary child prints no debug banner
			}
			continue
		}
		if v, ok := strings.CutPrefix(line, "JARVISD_DEBUG="); ok {
			c.debug = v
			break
		}
		if v, ok := strings.CutPrefix(line, "JARVISD_ERR="); ok {
			t.Fatalf("child daemon failed to start: %s", v)
		}
	}
	if c.addr == "" {
		t.Fatalf("child daemon exited without announcing an address (scan err: %v)", scanner.Err())
	}
	return c
}

// sigkill drops the child with no warning and reaps it.
func (c *childDaemon) sigkill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill child daemon: %v", err)
	}
	c.cmd.Wait()
}

// dialJSON opens a persistent JSON-protocol connection.
func dialJSON(t *testing.T, addr string) (*json.Encoder, *json.Decoder, func()) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return json.NewEncoder(conn), json.NewDecoder(conn), func() { conn.Close() }
}

// healthzReplication is the slice of /healthz the failover tests assert on.
type healthzReplication struct {
	Role        string `json:"role"`
	Replication *struct {
		Role       string  `json:"role"`
		FollowAddr string  `json:"followAddr"`
		Connected  bool    `json:"connected"`
		LagRecords float64 `json:"lagRecords"`
	} `json:"replication"`
}

func getHealthzReplication(t *testing.T, debugAddr string) healthzReplication {
	t.Helper()
	resp, err := http.Get("http://" + debugAddr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var hz healthzReplication
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return hz
}

// TestFailoverPromotionSIGKILL is the two-process chaos drill the
// replication subsystem exists for: kill the primary mid-load, require the
// standby to promote itself, and hold the promoted daemon to the same
// standard as a crash-recovered primary — its learning state must match a
// never-crashed control up to a bounded lost tail (at most the unshipped
// records, and never a torn event/transition pair applied halfway), and
// deterministic replay of its own WAL must regenerate its own decision log
// bit for bit.
func TestFailoverPromotionSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("failover harness re-execs the test binary twice")
	}
	const (
		preCrash    = 48 // replicated while both sides are healthy
		lostTail    = 8  // acked by the primary racing the kill
		postPromote = 12 // promoted life must stay in lockstep with control
	)
	primaryDir, standbyDir := t.TempDir(), t.TempDir()

	primary := spawnChildDaemon(t, primaryDir, "")
	standby := spawnChildDaemon(t, standbyDir, primary.addr)
	if standby.debug == "" {
		t.Fatal("standby announced no debug address; /debug/replay is unreachable")
	}

	// Phase 1: acked traffic into the primary while the standby streams.
	penc, pdec, pclose := dialJSON(t, primary.addr)
	defer pclose()
	for i := 0; i < preCrash; i++ {
		if resp := roundTrip(t, penc, pdec, eventScript[i%len(eventScript)]); resp.Error != "" {
			t.Fatalf("primary event %d: %s", i, resp.Error)
		}
		if i%4 == 3 {
			if resp := roundTrip(t, penc, pdec, request{Op: "recommend"}); !resp.OK {
				t.Fatalf("primary recommend after event %d: %s", i, resp.Error)
			}
		}
	}
	want := roundTrip(t, penc, pdec, request{Op: "learnstate"})
	if !want.OK {
		t.Fatalf("primary learnstate: %s", want.Error)
	}
	if want.LearnSteps == 0 {
		t.Fatal("primary ran no learn steps; the failover would prove nothing")
	}

	// The standby must converge onto the primary's exact training state:
	// same counters, same replay buffer, same Q fingerprint.
	fenc, fdec, fclose := dialJSON(t, standby.addr)
	defer fclose()
	var got response
	waitUntil(t, 30*time.Second, "standby to catch up with the primary", func() bool {
		got = roundTrip(t, fenc, fdec, request{Op: "learnstate"})
		return got.OK && got.Events == want.Events &&
			got.OnlineSteps == want.OnlineSteps && got.Recommends == want.Recommends
	})
	assertSameLearnState(t, want, got)
	if got.Role != roleFollower {
		t.Fatalf("standby role = %q, want %q", got.Role, roleFollower)
	}

	// While following: writes bounce, reads serve from the replica Q.
	if resp := roundTrip(t, fenc, fdec, eventScript[0]); resp.Error != errFollowerReadOnly {
		t.Fatalf("standby accepted a write while following: %+v", resp)
	}
	if resp := roundTrip(t, fenc, fdec, request{Op: "recommend"}); !resp.OK || resp.Role != roleFollower {
		t.Fatalf("standby read-only recommend: %+v", resp)
	}
	if hz := getHealthzReplication(t, standby.debug); hz.Role != roleFollower ||
		hz.Replication == nil || !hz.Replication.Connected {
		t.Fatalf("standby /healthz replication block: %+v", hz)
	}

	// Phase 2: the lost tail. More acked events race the kill — the
	// standby holds whatever the shipper got out before the process died.
	for i := 0; i < lostTail; i++ {
		req := eventScript[(preCrash+i)%len(eventScript)]
		if resp := roundTrip(t, penc, pdec, req); resp.Error != "" {
			t.Fatalf("primary lost-tail event %d: %s", i, resp.Error)
		}
	}
	primary.sigkill(t)

	// Phase 3: automatic promotion (the child self-promotes after 2s of
	// primary silence).
	waitUntil(t, 30*time.Second, "standby to promote itself", func() bool {
		return roundTrip(t, fenc, fdec, request{Op: "state"}).Role == rolePrimary
	})
	promoted := roundTrip(t, fenc, fdec, request{Op: "learnstate"})
	if !promoted.OK {
		t.Fatalf("promoted learnstate: %s", promoted.Error)
	}
	k, m := promoted.Events, promoted.OnlineSteps

	// The lost tail is bounded: everything acked before the healthy
	// barrier survived, nothing beyond the kill exists, and the only legal
	// torn position is an event whose learning transition didn't ship
	// (the primary journals evt before txn).
	if k < preCrash || k > preCrash+lostTail {
		t.Fatalf("promoted daemon holds %d events, want %d..%d", k, preCrash, preCrash+lostTail)
	}
	if m != k && m != k-1 {
		t.Fatalf("incoherent lost tail: events=%d onlineSteps=%d (want steps = events or events-1)", k, m)
	}

	// Phase 4: a control daemon that never crashed, fed exactly the prefix
	// that survived. A positive queue cap lets the control reproduce the
	// torn case: pinning the inflight gauge sheds precisely one event's
	// learning ingestion, which is what a kill between the evt and txn
	// journal appends looks like.
	ccfg := durableConfig(t.TempDir())
	ccfg.MaxQueue = 64
	control, err := newServer(ccfg)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	defer control.Close()
	feedEvents(t, control, m)
	if k == m+1 {
		control.inflight.Store(int64(ccfg.MaxQueue))
		if resp := control.handle(eventScript[m%len(eventScript)]); resp.Error != "" {
			t.Fatalf("control torn event: %s", resp.Error)
		}
		control.inflight.Store(0)
	}
	assertSameLearnState(t, learnState(t, control), promoted)

	// Phase 5: the promoted daemon is a full primary — it takes writes and
	// stays in lockstep with the control through more shared traffic.
	for i := 0; i < postPromote; i++ {
		req := eventScript[(k+i)%len(eventScript)]
		if resp := roundTrip(t, fenc, fdec, req); resp.Error != "" {
			t.Fatalf("promoted daemon rejected event %d: %s", i, resp.Error)
		}
		if resp := control.handle(req); resp.Error != "" {
			t.Fatalf("control post-promotion event %d: %s", i, resp.Error)
		}
	}
	assertSameLearnState(t, learnState(t, control), roundTrip(t, fenc, fdec, request{Op: "learnstate"}))

	// Phase 6: deterministic replay on the promoted daemon's own artifacts
	// — the WAL it journaled while following plus everything after
	// promotion must regenerate its decision log bit for bit.
	resp, err := http.Get("http://" + standby.debug + "/debug/replay")
	if err != nil {
		t.Fatalf("promoted /debug/replay: %v", err)
	}
	var rep struct {
		Match    bool `json:"match"`
		Compared int  `json:"compared"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("promoted /debug/replay decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !rep.Match {
		t.Fatalf("promoted daemon's decisions diverge from replay: status=%d match=%v", resp.StatusCode, rep.Match)
	}
	if rep.Compared == 0 {
		t.Fatal("promoted replay verified nothing")
	}

	// Phase 7: kill the promoted daemon too and verify its artifacts
	// post-mortem, offline — the same check a crashed primary gets.
	standby.sigkill(t)
	vcfg := durableConfig(standbyDir)
	offline, err := replay.Verify(replay.VerifyOptions{
		Config:      replayConfig(vcfg),
		Source:      verifySource(vcfg),
		DecisionLog: vcfg.DecisionLogPath,
	})
	if err != nil {
		t.Fatalf("offline verify of promoted daemon: %v", err)
	}
	if !offline.Match {
		t.Fatalf("promoted daemon's recorded decisions diverge offline: %+v", offline.Divergence)
	}
	if offline.Compared == 0 {
		t.Fatal("offline verify compared nothing")
	}
}

// TestOperatorPromote drives the explicit promotion path in-process: a
// follower with automatic failover disabled serves read-only, bounces
// writes, and flips to a full primary on the promote op — staying in
// lockstep with the original primary afterwards.
func TestOperatorPromote(t *testing.T) {
	primary, err := newServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	defer primary.Close()
	if err := primary.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("primary listen: %v", err)
	}

	fcfg := durableConfig(t.TempDir())
	fcfg.FollowAddr = primary.Addr()
	fcfg.PromoteAfter = -1 // never self-promote; only the operator may
	follower, err := newServer(fcfg)
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	defer follower.Close()

	const fed = 24
	feedEvents(t, primary, fed)
	want := learnState(t, primary)
	var got response
	waitUntil(t, 30*time.Second, "follower to catch up", func() bool {
		got = follower.handle(request{Op: "learnstate"})
		return got.OK && got.Events == want.Events && got.OnlineSteps == want.OnlineSteps
	})
	assertSameLearnState(t, want, got)
	if got.Role != roleFollower {
		t.Fatalf("follower role = %q, want %q", got.Role, roleFollower)
	}

	// Read-only surface: events and checkpoints bounce, recommends serve.
	if resp := follower.handle(eventScript[0]); resp.Error != errFollowerReadOnly {
		t.Fatalf("follower accepted an event: %+v", resp)
	}
	if resp := follower.handle(request{Op: "checkpoint"}); resp.Error != errFollowerReadOnly {
		t.Fatalf("follower accepted a checkpoint: %+v", resp)
	}
	if resp := follower.handle(request{Op: "recommend"}); !resp.OK || resp.Role != roleFollower {
		t.Fatalf("follower read-only recommend: %+v", resp)
	}

	// A primary has nothing to promote.
	if resp := primary.handle(request{Op: "promote"}); resp.Error == "" {
		t.Fatal("primary accepted a promote op")
	}
	if resp := follower.handle(request{Op: "promote"}); !resp.OK {
		t.Fatalf("promote op: %s", resp.Error)
	}
	waitUntil(t, 10*time.Second, "follower to finish promoting", func() bool {
		return follower.role() == rolePrimary
	})

	// Both daemons are now independent primaries at the same position;
	// identical further traffic must keep them identical.
	for i := 0; i < 8; i++ {
		req := eventScript[(fed+i)%len(eventScript)]
		if resp := follower.handle(req); resp.Error != "" {
			t.Fatalf("promoted follower event %d: %s", i, resp.Error)
		}
		if resp := primary.handle(req); resp.Error != "" {
			t.Fatalf("primary event %d: %s", i, resp.Error)
		}
	}
	assertSameLearnState(t, learnState(t, primary), learnState(t, follower))
}

// TestFollowerSurvivesTornJournalWrites aims the disk-fault injector at the
// follower's own journal: short writes tear its WAL appends mid-frame.
// Journal failures must degrade durability, never replication — the
// follower keeps applying the stream and converges on the primary's exact
// state — and whatever did reach its journal stays frame-intact behind the
// CRC (a torn tail ends iteration; it never leaks half a record).
func TestFollowerSurvivesTornJournalWrites(t *testing.T) {
	primary, err := newServer(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	defer primary.Close()
	if err := primary.listen("127.0.0.1:0"); err != nil {
		t.Fatalf("primary listen: %v", err)
	}

	disk := fault.NewDisk(fault.DiskShortWrite, 2<<10)
	fcfg := durableConfig(t.TempDir())
	fcfg.FollowAddr = primary.Addr()
	fcfg.PromoteAfter = -1
	fcfg.WALOpenFile = func(name string, flag int, perm os.FileMode) (wal.File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return disk.Wrap(f), nil
	}
	follower, err := newServer(fcfg)
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	defer follower.Close()

	// First batch: converge. The initial snapshot may cover any prefix of
	// this traffic (adoption journals nothing), so nothing about the fault
	// can be asserted yet.
	feedEvents(t, primary, 24)
	catchUp := func(what string) response {
		t.Helper()
		want := learnState(t, primary)
		var got response
		waitUntil(t, 30*time.Second, what, func() bool {
			got = follower.handle(request{Op: "learnstate"})
			return got.OK && got.Events == want.Events && got.OnlineSteps == want.OnlineSteps
		})
		assertSameLearnState(t, want, got)
		return got
	}
	catchUp("follower to converge on the first batch")

	// Second batch: a caught-up follower is past snapshot seeding, so every
	// one of these records ships individually and hits the torn journal —
	// more bytes than the clean budget holds, guaranteeing the fault fires.
	for i := 0; i < 48; i++ {
		if resp := primary.handle(eventScript[(24+i)%len(eventScript)]); resp.Error != "" {
			t.Fatalf("primary event %d: %s", i, resp.Error)
		}
	}
	catchUp("follower to converge despite torn journal writes")
	if disk.Fired() == 0 {
		t.Fatal("disk fault never fired; the journal budget is too generous to prove anything")
	}

	// Every record a reader can see decodes; the torn append is invisible.
	cur, err := wal.OpenCursor(fcfg.WALDir)
	if err != nil {
		t.Fatalf("open cursor: %v", err)
	}
	defer cur.Close()
	n := 0
	for {
		rec, err := cur.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, wal.ErrCorrupt) {
			break
		}
		if err != nil {
			t.Fatalf("cursor record %d: %v", n, err)
		}
		if _, derr := replay.DecodeRecord(rec); derr != nil {
			t.Fatalf("journal record %d is framed but undecodable: %v", n, derr)
		}
		n++
	}
	t.Logf("follower journal: %d intact records, %d torn appends", n, disk.Fired())
}
