package main

import (
	"bufio"
	"io"
	"net"
	"time"

	"jarvis/internal/device"
	"jarvis/internal/trace"
	"jarvis/internal/wire"
)

// maxBatch caps how many already-buffered requests one lock acquisition
// serves. Batching amortizes the state-lock handoff and the response
// write; consecutive recommend requests inside a batch additionally share
// one policy evaluation (the state cannot change between them).
const maxBatch = 64

// serveBinary runs the binary-protocol loop for one connection: verify the
// two-byte hello, ack, then read frames — blocking for the first request
// and coalescing whatever else is already buffered into one batch served
// under a single lock acquisition and answered with a single write.
func (s *server) serveBinary(conn net.Conn, br *bufio.Reader) {
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	if hello[0] != wire.Magic || hello[1] != wire.Version {
		// Unknown protocol revision: close rather than guess; the client
		// falls back to JSON.
		return
	}
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return
	}
	if _, err := conn.Write(wire.AppendAck(nil)); err != nil {
		return
	}
	r := wire.NewReader(br)
	reqs := make([]wire.Request, 0, maxBatch)
	out := make([]byte, 0, 4<<10)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		frame, err := r.ReadFrame()
		if err != nil {
			return
		}
		req, err := wire.ParseRequest(frame)
		if err != nil {
			return
		}
		reqs = append(reqs[:0], req)
		for len(reqs) < maxBatch {
			frame, ok, err := r.TryReadFrame()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			req, err := wire.ParseRequest(frame)
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		out = s.handleBatch(reqs, out[:0])
		if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		select {
		case <-s.stop:
			return
		default:
		}
	}
}

// handleBatch serves one coalesced batch: admission control sees the whole
// batch at once, the state lock is taken once, and responses are appended
// into a single output buffer. Each request goes through the same dispatch
// as a JSON request, so per-request telemetry, tracing, journaling, and
// decision logging are identical across the codecs.
func (s *server) handleBatch(reqs []wire.Request, out []byte) []byte {
	depth := s.inflight.Add(int64(len(reqs)))
	defer s.inflight.Add(-int64(len(reqs)))
	mQueueDepth.SetInt(depth)
	if len(reqs) > 1 {
		mWireCoalesced.Add(int64(len(reqs) - 1))
	}
	var t0 time.Time
	if mRequestLatency.Enabled() {
		t0 = time.Now()
	}
	s.mu.Lock()
	// One minute-of-day per batch: requests coalesced into the same lock
	// acquisition are served at the same instant, which is what makes
	// consecutive recommend evaluations shareable.
	minute := s.minuteOfDay(time.Now())
	var memo recMemo
	var sp *trace.Span
	for i, req := range reqs {
		c := s.binaryCall(req)
		sp = s.startOp(c.op, depth)
		sp.AnnotateInt("batch", int64(len(reqs)))
		if c.op == opEvent || c.op == opCheckpoint {
			// The environment (or the policy) is about to change; the
			// memoized recommendation is stale.
			memo.ok = false
		}
		r := s.dispatch(c, depth, minute, sp, &memo)
		out = s.appendWireResponse(out, &r)
		if i < len(reqs)-1 {
			sp.End()
		}
	}
	// One commit journals the whole batch before any response byte is
	// written; a sampled last request carries it as its wal.append span.
	s.commitWAL(sp)
	sp.End()
	s.mu.Unlock()
	if !t0.IsZero() {
		mRequestLatency.Observe(time.Since(t0))
	}
	return out
}

// binaryCall decodes a binary request: the opcode is the op, and the
// event's device and action already travel as IDs.
func (s *server) binaryCall(req wire.Request) call {
	c := call{op: op(req.Op), device: int(req.Device), action: device.ActionID(req.Action)}
	if int(req.Op) >= len(ops) || c.op == opUnknown {
		c.op, c.bad = opUnknown, "unknown op"
	} else if c.op == opEvent && c.device >= s.home.Env.K() {
		c.bad = "unknown device index"
	}
	return c
}

// appendWireResponse shapes a dispatch result into a framed binary
// response appended to out. States and actions are copied into reusable
// scratch buffers, so it allocates nothing at steady state. Caller holds
// s.mu.
func (s *server) appendWireResponse(out []byte, r *result) []byte {
	resp := wire.Response{Minute: r.minute}
	switch {
	case r.busy:
		resp.Flags, resp.RetryAfterMs = wire.FlagBusy, retryAfterMs
	case r.err == "":
		resp.Flags = wire.FlagOK
	}
	if r.unsafe {
		resp.Flags |= wire.FlagUnsafe
	}
	resp.Err = append(resp.Err, r.err...)
	if r.show&showState != 0 {
		resp.State = s.wireStateIDs()
	}
	if r.show&showViolations != 0 {
		resp.Violations = s.h.Violations
	}
	if r.show&showAction != 0 {
		resp.Q, resp.Action = r.d.Value, s.wireActionIDs(r.d.Action)
		resp.Degraded = s.sys.DegradedRecommendations()
	}
	if r.show&showLearn != 0 {
		resp.Flags |= wire.FlagHasLearn
		resp.ReplaySize = s.sys.Agent().ReplayBuffer().Len()
		resp.Events, resp.OnlineSteps, resp.LearnSteps, resp.Recommends = s.h.Events, s.h.Steps, s.h.LearnSteps, s.h.Recs
		resp.QSum = append(resp.QSum, r.qsum...)
	}
	return wire.AppendResponse(out, &resp)
}

// wireStateIDs copies the current state into the reusable binary scratch
// buffer (guarded by mu).
func (s *server) wireStateIDs() []uint8 {
	if cap(s.wireState) < len(s.h.State) {
		s.wireState = make([]uint8, len(s.h.State))
	}
	s.wireState = s.wireState[:len(s.h.State)]
	for i, st := range s.h.State {
		s.wireState[i] = uint8(st)
	}
	return s.wireState
}

// wireActionIDs copies a composite action into the reusable binary scratch
// buffer (guarded by mu).
func (s *server) wireActionIDs(a []device.ActionID) []int16 {
	if cap(s.wireAction) < len(a) {
		s.wireAction = make([]int16, len(a))
	}
	s.wireAction = s.wireAction[:len(a)]
	for i, act := range a {
		s.wireAction[i] = int16(act)
	}
	return s.wireAction
}
