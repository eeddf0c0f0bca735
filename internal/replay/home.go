package replay

import (
	"bytes"
	"fmt"

	"jarvis"
	"jarvis/internal/checkpoint"
	"jarvis/internal/device"
	"jarvis/internal/env"
	"jarvis/internal/rl"
	"jarvis/internal/trace"
)

// Home is one home's Jarvis state machine. Device events pass the P_safe
// audit and move the environment state, accepted transitions feed the
// online learner, and recommendations are read from the learned policy.
// The daemon's live ops (Event, Recommend), its boot recovery and follower
// apply (Apply), and the offline Replayer (Apply) all run through this one
// type, so a crash-recovered primary, a promoted follower and an offline
// replay of the same journal end in the same state because they share the
// code that gets them there. Not safe for concurrent use; the daemon
// serializes it under its state lock.
type Home struct {
	Counters
	// State is the current environment state.
	State env.State

	// Journal, when set, receives each record a live op produces, at the
	// point the op produces it: evt right after the audit, txn before the
	// learner sees it, rec once the sequence advances. Apply never calls
	// it: its records are journaled already.
	Journal func(rec Record)

	a    *Assets
	cfg  Config
	next env.State // recommend cross-check scratch
}

// Counters are a Home's sequence and violation counters: the position a
// snapshot records, and the per-kind WAL sequence numbers continue from.
type Counters struct {
	Violations int // events that failed the P_safe audit
	Events     int // evt sequence: events applied
	Steps      int // txn sequence: transitions accepted by the learner
	LearnSteps int // online learn steps that ran
	Recs       int // rec sequence: recommendations served
}

// Outcome reports what one live op or applied record did.
type Outcome struct {
	// OK reports that the record advanced the machine. Apply leaves it
	// false for a record the counters already cover, and for one it
	// rejects with an error.
	OK     bool
	Kind   string // the record kind
	Seq    int    // the record's kind-local sequence number
	Minute int
	// Decided reports a decision to render with Home.Decision: every
	// applied evt, and every rec the policy was evaluated for. Decision
	// holds the applied composite action (evt) or the recommendation (rec).
	Decided bool
	jarvis.Decision
	// Unsafe reports that the event failed the P_safe audit, or that the
	// recommended transition failed the same cross-check.
	Unsafe bool
	// Next is the state a recommendation leads to (nil when it does not
	// apply). It aliases scratch space, valid until the next op.
	Next env.State
	// Observed reports that a transition reached the learner, with the
	// Reward it earned; Learned that it also triggered a learn step.
	Observed bool
	Learned  bool
	Reward   float64
}

// NewHome starts a Home at the environment's initial state over assets
// produced by Build and then trained, or seeded with Seed.
func NewHome(a *Assets, cfg Config) *Home {
	return &Home{State: a.Home.InitialState(), a: a, cfg: cfg.withDefaults()}
}

// Seed restores the Home from a checkpoint generation: the snapshot is
// validated against the Home's configuration, the trained system is
// rebuilt from it, and its environment state and counters are taken over,
// so Apply skips every record the snapshot already covers.
func (h *Home) Seed(ck *Snapshot) error {
	if err := ck.Validate(h.cfg, len(h.State)); err != nil {
		return err
	}
	if err := h.a.RestoreSnapshot(ck, h.cfg.Logf); err != nil {
		return err
	}
	if len(ck.State) == len(h.State) {
		h.State = ck.State
	}
	h.Counters = Counters{Violations: ck.Violations, Events: ck.Events, Steps: ck.OnlineSteps,
		LearnSteps: ck.LearnSteps, Recs: ck.Recommends}
	return nil
}

// RestoreOrTrain is the restore-or-train decision a booting daemon and a
// replay share: seed the Home from the newest usable generation in store,
// or, when there is none (or store is nil), train the optimizer from
// scratch. It returns the generation seeded from (0 after training), why
// no generation was usable (nil when one was, or store is nil), and any
// training failure.
func (h *Home) RestoreOrTrain(store *checkpoint.Store) (gen uint64, unusable, err error) {
	if store != nil {
		var ck *Snapshot
		if ck, gen, unusable = LoadSnapshot(store, h.cfg, len(h.State), nil); unusable == nil {
			if unusable = h.Seed(ck); unusable == nil {
				return gen, nil, nil
			}
		}
	}
	return 0, unusable, h.a.Train()
}

// Snapshot serializes the Home as a checkpoint generation: the training
// configuration, P_safe, the Q function, the replay buffer and exploration
// rate, and the environment state and counters.
func (h *Home) Snapshot() (*Snapshot, error) {
	var table, q, rbuf bytes.Buffer
	if err := h.a.Sys.SaveTable(&table); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := h.a.Sys.SaveQ(&q); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := h.a.Sys.Agent().ReplayBuffer().Save(&rbuf); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Snapshot{
		Version:      SnapshotVersion,
		Seed:         h.cfg.Seed,
		LearningDays: h.cfg.LearningDays,
		Episodes:     h.cfg.Episodes,
		Violations:   h.Violations,
		State:        h.State,
		Events:       h.Events,
		OnlineSteps:  h.Steps,
		LearnSteps:   h.LearnSteps,
		Recommends:   h.Recs,
		Epsilon:      h.a.Sys.Agent().Epsilon(),
		UseDNN:       h.cfg.UseDNN,
		Table:        table.Bytes(),
		Q:            q.Bytes(),
		Replay:       rbuf.Bytes(),
	}, nil
}

// Event is the live event op: apply act to device di (a valid index) at
// minute, audit the transition against P_safe, and journal it. When learn
// is set the transition also feeds the online learner; the daemon clears
// it to shed learning under load, but the audit always runs.
func (h *Home) Event(sp *trace.Span, minute, di int, act device.ActionID, learn bool) (Outcome, error) {
	prev := h.State
	evt := Record{K: KindEvent, N: h.Events + 1, M: minute, D: di, A: act}
	o, err := h.apply(sp, evt, true, false)
	if err != nil {
		return o, err
	}
	evt.U = o.Unsafe
	h.journal(evt)
	if learn {
		li := sp.Child("learn.ingest")
		txn := Record{K: KindTransition, N: h.Steps + 1, M: minute, D: di, A: act, S: prev}
		h.journal(txn)
		t, _ := h.apply(li, txn, true, false)
		o.Observed, o.Learned, o.Reward = t.Observed, t.Learned, t.Reward
		li.End()
	}
	return o, nil
}

// Recommend is the live recommend op: evaluate the policy at the current
// state and minute, cross-check the result against P_safe, and journal
// the served recommendation. reuse, when non-nil, is an evaluation made at
// this same state and minute; it is served again without re-running the
// policy.
func (h *Home) Recommend(sp *trace.Span, minute int, reuse *Outcome) (Outcome, error) {
	var o Outcome
	if reuse != nil {
		o = *reuse
	} else if err := h.evaluate(sp, minute, true, &o); err != nil {
		return o, err
	}
	h.Recs++
	o.OK, o.Kind, o.Seq, o.Minute = true, KindRecommend, h.Recs, minute
	h.journal(Record{K: KindRecommend, N: h.Recs, M: minute})
	return o, nil
}

// Apply runs one journaled record through the machine. It is the path
// boot recovery, follower apply and the offline Replayer share. A record
// whose sequence number the counters already cover is skipped (OK false,
// nil error); a malformed or inapplicable record changes nothing and comes
// back as an error for the caller to log. regen asks for a rec record's
// decision to be regenerated by re-executing the policy at this point in
// the stream; if that fails, the error comes back with OK set, because
// the rec itself was counted.
func (h *Home) Apply(rec Record, regen bool) (Outcome, error) {
	o, err := h.apply(nil, rec, false, regen)
	if err != nil {
		err = fmt.Errorf("%s #%d: %w", rec.K, rec.N, err)
	}
	return o, err
}

// apply is the one place record semantics live. live selects the traced
// P_safe check, which also feeds the policy.audit.* metrics: re-applied
// records use the bare check, so recovery and replay do not count as
// serving traffic.
func (h *Home) apply(sp *trace.Span, rec Record, live, regen bool) (Outcome, error) {
	e := h.a.Home.Env
	o := Outcome{Kind: rec.K, Seq: rec.N, Minute: rec.M}
	switch rec.K {
	case KindEvent:
		if rec.N <= h.Events {
			return o, nil
		}
		if rec.D < 0 || rec.D >= e.K() {
			return o, fmt.Errorf("bad device %d", rec.D)
		}
		a := env.NoOp(e.K())
		a[rec.D] = rec.A
		next, err := e.Transition(h.State, a)
		if err != nil {
			return o, err
		}
		// The verdict is re-derived, never read from the journaled flag: the
		// restored P_safe is deterministic, so recomputing keeps the
		// violation count honest even against a stale record.
		o.Unsafe = !h.safe(sp, live, h.State, next, a)
		if o.Unsafe {
			h.Violations++
		}
		h.State = next
		h.Events++
		o.OK, o.Decided, o.Action = true, true, a

	case KindTransition:
		if rec.N <= h.Steps {
			return o, nil
		}
		if len(rec.S) != e.K() || rec.D < 0 || rec.D >= e.K() {
			return o, fmt.Errorf("malformed")
		}
		a := env.NoOp(e.K())
		a[rec.D] = rec.A
		o.OK = true
		h.ingest(sp, rec.S, a, rec.M, &o)

	case KindRecommend:
		// A recommendation has no state effect: applying one advances the
		// sequence, and regenerating it re-executes the policy.
		if rec.N <= h.Recs {
			return o, nil
		}
		h.Recs++
		o.OK = true
		if regen {
			return o, h.evaluate(sp, rec.M, live, &o)
		}

	default:
		return o, fmt.Errorf("unknown record kind")
	}
	return o, nil
}

// ingest feeds one observed transition to the online learner: reward and
// replay buffer via ObserveTransition, then one learn step every
// OnlineTrainEvery transitions. Each learn step draws from an RNG seeded
// only by (seed, transition count), never by wall-clock or by how the
// process got here, so every path through Home walks the same training
// trajectory.
func (h *Home) ingest(sp *trace.Span, prev env.State, a env.Action, minute int, o *Outcome) {
	h.Steps++
	_, reward, err := h.a.Sys.ObserveTransition(prev, a, minute)
	if err != nil {
		h.cfg.Logf("replay: online observe failed: %v", err)
		return
	}
	o.Observed, o.Reward = true, reward
	if h.cfg.OnlineTrainEvery > 0 && h.Steps%h.cfg.OnlineTrainEvery == 0 {
		ran, err := h.a.Sys.LearnOnlineTraced(sp, rl.StepRNG(h.cfg.Seed, h.Steps))
		switch {
		case err != nil:
			h.cfg.Logf("replay: online learn step failed: %v", err)
		case ran:
			h.LearnSteps++
			o.Learned = true
		}
	}
}

// evaluate reads the policy's decision at the current state and
// cross-checks it against P_safe. The constrained agent only proposes
// whitelisted transitions, so a deny here means the table and the
// optimizer have drifted apart.
func (h *Home) evaluate(sp *trace.Span, minute int, live bool, o *Outcome) error {
	d, err := h.a.Sys.RecommendDecisionTraced(sp, h.State, minute)
	if err != nil {
		return err
	}
	o.Decided, o.Decision = true, d
	e := h.a.Home.Env
	if h.next == nil {
		h.next = make(env.State, e.K())
	}
	if e.TransitionInto(h.next, h.State, d.Action) == nil {
		o.Next = h.next
		o.Unsafe = !h.safe(sp, live, h.State, h.next, d.Action)
	}
	return nil
}

func (h *Home) safe(sp *trace.Span, live bool, from, to env.State, a env.Action) bool {
	e, t := h.a.Home.Env, h.a.Sys.SafeTable()
	if live {
		return t.SafeTransitionTraced(sp, e.StateKey(from), e.StateKey(to), a)
	}
	return t.SafeTransition(e.StateKey(from), e.StateKey(to), a)
}

func (h *Home) journal(rec Record) {
	if h.Journal != nil {
		h.Journal(rec)
	}
}

// Decision renders an outcome that produced a decision (Outcome.Decided)
// in canonical form, against the Home's current state.
func (h *Home) Decision(o Outcome) Decision {
	e := h.a.Home.Env
	d := Decision{Kind: "event", Seq: o.Seq, Minute: o.Minute, State: StateNames(e, h.State),
		Action: e.FormatAction(o.Action), Verdict: "safe"}
	if o.Kind == KindRecommend {
		d.Kind, d.Q, d.Degraded = "recommend", o.Value, o.Degraded
		if o.Degraded {
			d.Verdict = "degraded"
		}
	}
	if o.Unsafe {
		d.Verdict = "unsafe"
	}
	return d
}

// StateNames renders a state as device=state pairs.
func StateNames(e *env.Environment, s env.State) []string {
	out := make([]string, len(s))
	for i, st := range s {
		out[i] = e.Device(i).Name() + "=" + e.Device(i).StateName(st)
	}
	return out
}
