package replay

import (
	"errors"
	"fmt"
	"io"

	"jarvis/internal/wal"
)

// Decision is one regenerated decision in canonical form: the fields the
// daemon's decision log records minus the wall-clock-dependent ones
// (UnixNs, Trace, Anomaly — see DESIGN.md §12 for why those are excluded
// from the divergence definition).
type Decision struct {
	Kind     string   `json:"kind"` // "event" | "recommend"
	Seq      int      `json:"seq"`  // kind-local WAL sequence number
	Minute   int      `json:"minute"`
	State    []string `json:"state"`
	Action   string   `json:"action"`
	Q        float64  `json:"q,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
	Verdict  string   `json:"verdict"`
}

// StreamStats summarizes one replayed decision stream. Counters over the
// whole replay (Events, Transitions, Recommends, LearnSteps, Violations)
// cover every applied record; the decision-level fields (Decisions,
// Degraded, Unsafe, the reward sums) cover only the post-fork window, so
// a what-if baseline and variant are compared over identical spans.
type StreamStats struct {
	Events      int `json:"events"`      // evt records applied
	Transitions int `json:"transitions"` // txn records applied
	Recommends  int `json:"recommends"`  // rec records seen
	LearnSteps  int `json:"learnSteps"`  // online learn steps that ran
	Violations  int `json:"violations"`  // P_safe violations among events

	Decisions int `json:"decisions"` // decisions emitted post-fork
	Degraded  int `json:"degraded"`  // ... that fell back to the safe NoOp
	Unsafe    int `json:"unsafe"`    // ... with an "unsafe" verdict
	// RecommendReward sums the reward R(state, action, minute) of every
	// post-fork recommended action — the counterfactual value estimate a
	// what-if run compares across policies.
	RecommendReward float64 `json:"recommendReward"`
	// TransitionReward sums the recorded transitions' rewards as fed to
	// the online learner post-fork.
	TransitionReward float64 `json:"transitionReward"`
}

// Replayer re-executes a recorded WAL stream against freshly built (or
// snapshot-restored) assets by applying each record to a Home, the same
// state machine the daemon serves, recovers and follows through, so a
// replay of an unmodified configuration walks bit-for-bit the trajectory
// the daemon walked. On top of the Home it keeps only what a replay adds:
// ForkAt installs a mutation (e.g. SwapPolicy) that is applied once the
// stream reaches a given event sequence number, decisions are emitted only
// from the fork point on, and reward statistics cover the same window.
type Replayer struct {
	h *Home

	at     int // fork once events reaches this sequence number
	forked bool
	origin bool // no seeded counters skipped anything
	mutate func(*Assets) error

	decisions []Decision
	stats     StreamStats
}

// NewReplayer builds a replayer over assets produced by Build and trained.
// The zero fork point means the whole stream is re-executed and emitted —
// verify mode.
func NewReplayer(a *Assets, cfg Config) *Replayer {
	return &Replayer{h: NewHome(a, cfg), origin: true}
}

// ForkAt arranges for mutate (nil for a pure re-execution) to run just
// before the first record at or past event sequence number at. Decisions
// are emitted only from the fork on, so two replays forked at the same
// point yield position-aligned, comparable streams.
func (r *Replayer) ForkAt(at int, mutate func(*Assets) error) {
	r.at = at
	r.mutate = mutate
}

// Decisions returns the regenerated decision stream (post-fork only).
func (r *Replayer) Decisions() []Decision { return r.decisions }

// Stats returns the replay's stream statistics.
func (r *Replayer) Stats() StreamStats {
	st := r.stats
	st.Violations = r.h.Violations
	st.Events = r.h.Events
	st.Transitions = r.h.Steps
	st.Recommends = r.h.Recs
	st.LearnSteps = r.h.LearnSteps
	return st
}

// Origin reports whether this replay covers the stream from the very
// beginning (no checkpoint counters skipped anything) — the case where
// the regenerated stream head-aligns with the recorded decision log.
func (r *Replayer) Origin() bool { return r.origin }

// Run streams every record in the WAL directory through Step. Undecodable
// payloads are skipped (their framing CRC passed, so they are foreign or
// future-format records); a torn tail ends the run cleanly, while sealed
// damage surfaces as wal.ErrCorrupt.
func (r *Replayer) Run(dir string) error {
	c, err := wal.OpenCursor(dir)
	if err != nil {
		return err
	}
	defer c.Close()
	for {
		b, err := c.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		rec, derr := DecodeRecord(b)
		if derr != nil {
			r.h.cfg.Logf("replay: skipping undecodable record: %v", derr)
			continue
		}
		if err := r.Step(rec); err != nil {
			return err
		}
	}
}

// Step applies one WAL record to the Home, re-executing the policy for
// rec records once the replay has forked.
func (r *Replayer) Step(rec Record) error {
	if !r.forked && r.h.Events >= r.at {
		r.forked = true
		if r.mutate != nil {
			if err := r.mutate(r.h.a); err != nil {
				return fmt.Errorf("replay: fork mutation: %w", err)
			}
		}
	}
	o, err := r.h.Apply(rec, r.forked)
	if err != nil {
		if o.OK {
			return fmt.Errorf("replay: %w", err) // the policy failed to re-execute
		}
		r.h.cfg.Logf("replay: %v", err)
		return nil
	}
	if !o.OK || !r.forked {
		return nil
	}
	r.stats.TransitionReward += o.Reward
	if !o.Decided {
		return nil
	}
	if o.Degraded {
		r.stats.Degraded++
	}
	if o.Unsafe {
		r.stats.Unsafe++
	}
	if rw := r.h.a.SimCfg.Reward; rw != nil && o.Kind == KindRecommend {
		r.stats.RecommendReward += rw.R(r.h.State, o.Action, o.Minute)
	}
	r.decisions = append(r.decisions, r.h.Decision(o))
	r.stats.Decisions++
	return nil
}
