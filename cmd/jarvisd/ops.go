package main

import (
	"time"

	"jarvis"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
	"jarvis/internal/trace"
	"jarvis/internal/wire"
)

// op is a request op. Both codecs decode into it (the JSON op name, the
// binary opcode) and one dispatch serves it. The values are the binary
// opcodes.
type op uint8

const (
	opUnknown    op = 0
	opState      op = wire.OpState
	opEvent      op = wire.OpEvent
	opRecommend  op = wire.OpRecommend
	opViolations op = wire.OpViolations
	opCheckpoint op = wire.OpCheckpoint
	opLearnState op = wire.OpLearnState
	opPromote    op = wire.OpPromote
)

// opInfo is one row of the per-op table.
type opInfo struct {
	name, span string
	requests   *telemetry.Counter
	show       uint8 // the state sections a successful answer carries
	write      bool  // a follower refuses the op
}

// ops is the per-op table both codecs share, indexed by op: the JSON op
// name, the root span name of a sampled request, the op's
// jarvisd.requests{op} child, the sections a successful answer carries,
// and whether the op writes. Rows are resolved once at init, so counting
// a request is an index plus an atomic add and the traced path never
// concatenates a span name.
var ops = [...]opInfo{
	opUnknown:    newOp("unknown", 0, false),
	opState:      newOp("state", showState|showViolations|showRole, false),
	opEvent:      newOp("event", showState|showViolations, true),
	opRecommend:  newOp("recommend", showAction, false),
	opViolations: newOp("violations", showViolations, false),
	opCheckpoint: newOp("checkpoint", 0, true),
	opLearnState: newOp("learnstate", showViolations|showLearn|showRole, false),
	opPromote:    newOp("promote", showRole, false),
}

func newOp(name string, show uint8, write bool) opInfo {
	return opInfo{name, "jarvisd." + name, mRequestsVec.With(name), show, write}
}

// call is one decoded request: the op and, for event, the resolved device
// index and action. bad is a decode failure (an unknown op, device or
// action) that dispatch answers with instead of running the op.
type call struct {
	op     op
	device int
	action device.ActionID
	bad    string
}

// Sections of the daemon state a result carries; each codec renders them
// in its own form.
const (
	showState = 1 << iota
	showViolations
	showAction
	showLearn
	showRole
)

// retryAfterMs is the back-off hint on a shed recommendation.
const retryAfterMs = 250

// result is one op's answer before a codec shapes it into a response
// (jsonResponse, appendWireResponse).
type result struct {
	err    string
	busy   bool
	unsafe bool
	show   uint8
	minute int
	d      jarvis.Decision // recommend
	qsum   string          // learnstate
}

// startOp counts one request against its op's row and starts its root span
// when the request is sampled.
func (s *server) startOp(o op, depth int64) *trace.Span {
	ops[o].requests.Inc()
	sp := s.tracer.Start(ops[o].span)
	sp.AnnotateInt("depth", depth)
	return sp
}

// dispatch serves one call under s.mu; it is the one op switch behind both
// codecs. memo, non-nil on the binary batch path, shares one recommend
// evaluation across the batch.
//
// Admission control sheds by queue depth. Learning sheds first, above half
// of MaxQueue: the audit check and the state transition are the safety
// surface and always run, while the learner can catch up from later
// traffic. Recommendations shed last, above MaxQueue — they are the
// product — and reject loudly with a retry hint.
func (s *server) dispatch(c call, depth int64, minute int, sp *trace.Span, memo *recMemo) result {
	if ops[c.op].write && s.following.Load() {
		return result{minute: minute, err: errFollowerReadOnly}
	}
	r := result{minute: minute, show: ops[c.op].show}
	var err error
	switch c.op {
	case opState, opViolations:

	case opEvent:
		if c.bad != "" {
			r.err = c.bad
			break
		}
		// The Home audits and applies the event and, unless learning is
		// shed, feeds the learner.
		learn := s.cfg.MaxQueue <= 0 || depth <= int64(s.cfg.MaxQueue)/2
		var o replay.Outcome
		if o, err = s.h.Event(sp, minute, c.device, c.action, learn); err != nil {
			break
		}
		if !learn {
			s.shedEvents++
			mShedEvents.Inc()
		}
		s.noteOutcome(o, c.device)
		s.logDecision(sp, o, 0)
		r.unsafe = o.Unsafe

	case opRecommend:
		if s.cfg.MaxQueue > 0 && depth > int64(s.cfg.MaxQueue) {
			s.shedRecommends++
			mShedRecommends.Inc()
			r.err, r.busy = "overloaded: recommendation shed", true
			break
		}
		if !s.following.Load() {
			r.d, err = s.recommend(sp, minute, memo)
			break
		}
		// Read-only replica serve: evaluate the replica policy, but the
		// decision stream (journal, log, counters) belongs to the primary,
		// so nothing is memoized or recorded.
		r.show |= showRole
		if r.d, err = s.sys.RecommendDecisionTraced(sp, s.h.State, minute); err == nil {
			s.replicaReads++
			mReplicaReads.Inc()
		}

	case opCheckpoint:
		if s.store == nil {
			r.err = "daemon started without -checkpoint"
		} else {
			err = s.saveCheckpointLocked()
		}

	case opLearnState:
		r.qsum, err = s.sys.QFingerprint()

	case opPromote:
		err = s.requestPromote()

	default:
		r.err = c.bad
	}
	if err != nil {
		r.err = err.Error()
	}
	if r.err != "" && c.op != opPromote {
		// A failed op answers with the error alone; promote reports the
		// role either way.
		r.show = 0
	}
	return r
}

// recMemo carries one binary batch's recommend evaluation. Consecutive
// recommends at the same state and minute are deterministic, so the policy
// runs once and each request still journals its own served decision.
type recMemo struct {
	o  replay.Outcome
	ok bool
}

// recommend is the recommend op: the Home evaluates, cross-checks and
// journals, and the daemon scores the anomaly filter and logs the decision.
// The memoized evaluation is reused only when nothing needs the full
// pipeline: a sampled request re-evaluates so its span tree covers the
// selection, and a decision-logging daemon re-evaluates so every served
// recommendation has its own audit record. The result is bit-identical
// either way.
func (s *server) recommend(sp *trace.Span, minute int, memo *recMemo) (jarvis.Decision, error) {
	var reuse *replay.Outcome
	if memo != nil && memo.ok && sp == nil && s.decisions == nil {
		reuse = &memo.o
		mWireSharedEvals.Inc()
	}
	o, err := s.h.Recommend(sp, minute, reuse)
	if memo != nil {
		memo.o, memo.ok = o, err == nil
	}
	if err != nil || reuse != nil {
		return o.Decision, err
	}
	var score float64
	if s.filter != nil && o.Next != nil {
		// Score the transition through the benign-anomaly ANN — the
		// daemon's answer to "how unusual is the action I am about to
		// suggest".
		score = s.filter.ScoreTraced(sp, env.Transition{
			From: s.h.State, Act: o.Action, To: o.Next,
			Instance: minute,
			At:       s.startOfDay.Add(time.Duration(minute) * time.Minute),
		})
	}
	s.logDecision(sp, o, score)
	return o.Decision, nil
}

// noteOutcome turns what the Home reports into the daemon's counters, on
// every path that moves it: live serving, boot recovery, follower apply.
func (s *server) noteOutcome(o replay.Outcome, di int) {
	if o.Unsafe && o.Kind == replay.KindEvent {
		mEventsUnsafe.Inc()
		s.mUnsafeByDevice[di].Inc()
	}
	if o.Observed {
		mOnlineObserved.Inc()
	}
	if o.Learned {
		mOnlineLearnSteps.Inc()
		s.maybeShadowEval()
	}
}

// logDecision appends the decision an outcome produced to the decision log
// (no-op when the log is disabled). The pending journal batch is committed
// first, so the decision log never holds a decision whose record is not
// in the WAL. Log failures are reported, never fatal: an unwritable audit
// trail must not take recommendations down with it. A sampled request's
// trace ID is stamped into the record — the join key between the decision
// log and /debug/traces.
func (s *server) logDecision(sp *trace.Span, o replay.Outcome, anomaly float64) {
	if s.decisions == nil {
		return
	}
	s.commitWAL(sp)
	d := s.h.Decision(o)
	rec := replay.LoggedDecision{UnixNs: time.Now().UnixNano(), Kind: d.Kind, Minute: d.Minute,
		State: d.State, Action: d.Action, Q: d.Q, Degraded: d.Degraded, Verdict: d.Verdict,
		Anomaly: anomaly}
	if id := sp.TraceID(); id != 0 {
		rec.Trace = trace.IDString(id)
	}
	if err := s.decisions.Record(rec); err != nil {
		s.cfg.Logf("jarvisd: decision log write failed: %v", err)
		return
	}
	mDecisionsLogged.Inc()
}
