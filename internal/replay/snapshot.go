package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"jarvis/internal/checkpoint"
	"jarvis/internal/env"
)

// SnapshotVersion guards the checkpoint's on-disk format; bump on layout
// changes. v2 added the runtime state a WAL replay builds on (environment
// state, ingest/learn counters, exploration rate, replay buffer); v3 added
// the recommendation counter so replay can skip "rec" records a checkpoint
// already covers.
const SnapshotVersion = 3

// Snapshot is one checkpoint generation: the training configuration it was
// produced under (so a restarted daemon — or a replay — can detect
// mismatches), the learned P_safe, the trained Q function, and the runtime
// state the WAL replays on top of. The daemon writes one per checkpoint
// save; the replay engine reads them to seed re-execution mid-stream.
type Snapshot struct {
	Version      int             `json:"version"`
	Seed         int64           `json:"seed"`
	LearningDays int             `json:"learningDays"`
	Episodes     int             `json:"episodes"`
	Violations   int             `json:"violations"`
	State        env.State       `json:"state,omitempty"`
	Events       int             `json:"events,omitempty"`
	OnlineSteps  int             `json:"onlineSteps,omitempty"`
	LearnSteps   int             `json:"learnSteps,omitempty"`
	Recommends   int             `json:"recommends,omitempty"`
	Epsilon      float64         `json:"epsilon,omitempty"`
	UseDNN       bool            `json:"useDnn,omitempty"`
	Table        json.RawMessage `json:"table"`
	Q            json.RawMessage `json:"q"`
	Replay       json.RawMessage `json:"replay,omitempty"`
}

// Validate rejects a decoded snapshot the given configuration cannot use.
// Every rejection is deterministic — retrying the same bytes cannot help —
// so each is wrapped in checkpoint.ErrCorrupt, which makes the store fall
// back to the previous generation without burning retries.
func (ck *Snapshot) Validate(cfg Config, k int) error {
	cfg = cfg.withDefaults()
	if ck.Version != SnapshotVersion {
		return fmt.Errorf("version %d, want %d: %w", ck.Version, SnapshotVersion, checkpoint.ErrCorrupt)
	}
	if ck.Seed != cfg.Seed || ck.LearningDays != cfg.LearningDays || ck.Episodes != cfg.Episodes {
		return fmt.Errorf("trained with seed=%d days=%d episodes=%d, caller wants seed=%d days=%d episodes=%d: %w",
			ck.Seed, ck.LearningDays, ck.Episodes, cfg.Seed, cfg.LearningDays, cfg.Episodes, checkpoint.ErrCorrupt)
	}
	if ck.UseDNN != cfg.UseDNN {
		// The Q payloads of the two backends are mutually unreadable;
		// omitempty keeps pre-existing tabular snapshots decoding as false.
		return fmt.Errorf("trained with useDnn=%t, caller wants useDnn=%t: %w",
			ck.UseDNN, cfg.UseDNN, checkpoint.ErrCorrupt)
	}
	if len(ck.Table) == 0 || len(ck.Q) == 0 {
		return fmt.Errorf("missing table or Q payload: %w", checkpoint.ErrCorrupt)
	}
	if len(ck.State) != 0 && len(ck.State) != k {
		return fmt.Errorf("state has %d devices, environment has %d: %w", len(ck.State), k, checkpoint.ErrCorrupt)
	}
	return nil
}

// RestoreSnapshot rebuilds the trained system from a snapshot instead of
// training: P_safe, the optimizer wiring, the Q values, the exploration
// rate, and the replay buffer. The runtime counters (Events, OnlineSteps,
// Recommends, Violations, State) are NOT applied here; Home.Seed applies
// them.
func (a *Assets) RestoreSnapshot(ck *Snapshot, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := a.Sys.LoadTable(bytes.NewReader(ck.Table)); err != nil {
		return fmt.Errorf("checkpoint table: %w", err)
	}
	if err := a.Sys.Restore(a.SimCfg, a.TrainCfg, bytes.NewReader(ck.Q)); err != nil {
		return err
	}
	if ck.Epsilon > 0 {
		a.Sys.Agent().SetEpsilon(ck.Epsilon)
	}
	if len(ck.Replay) > 0 {
		if err := a.Sys.Agent().ReplayBuffer().Load(bytes.NewReader(ck.Replay)); err != nil {
			// The replay buffer is an accelerant, not ground truth; losing
			// it degrades online learning but nothing else.
			logf("replay: snapshot replay buffer unloadable (%v); starting empty", err)
		}
	}
	return nil
}

// SwapPolicy substitutes the policy the assets serve with: q replaces the
// trained Q function (raw SaveQ bytes), table replaces the learned P_safe
// (Table JSON). Either may be nil to keep the current one. Swapping the
// table rebuilds the agent (the constrained simulator captures the table
// at wiring time) while carrying the replay buffer and exploration rate
// across, so the only thing that changes is the policy itself — the
// counterfactual what-if substitution.
func (a *Assets) SwapPolicy(q, table []byte) error {
	if len(table) > 0 {
		var buf bytes.Buffer
		if err := a.Sys.Agent().ReplayBuffer().Save(&buf); err != nil {
			return fmt.Errorf("swap policy: %w", err)
		}
		eps := a.Sys.Agent().Epsilon()
		if err := a.Sys.LoadTable(bytes.NewReader(table)); err != nil {
			return fmt.Errorf("swap policy table: %w", err)
		}
		if len(q) == 0 {
			var cur bytes.Buffer
			if err := a.Sys.SaveQ(&cur); err != nil {
				return fmt.Errorf("swap policy: %w", err)
			}
			q = cur.Bytes()
		}
		if err := a.Sys.Restore(a.SimCfg, a.TrainCfg, bytes.NewReader(q)); err != nil {
			return fmt.Errorf("swap policy: %w", err)
		}
		a.Sys.Agent().SetEpsilon(eps)
		if err := a.Sys.Agent().ReplayBuffer().Load(bytes.NewReader(buf.Bytes())); err != nil {
			return fmt.Errorf("swap policy: %w", err)
		}
		return nil
	}
	if len(q) > 0 {
		if err := a.Sys.LoadQ(bytes.NewReader(q)); err != nil {
			return fmt.Errorf("swap policy q: %w", err)
		}
	}
	return nil
}

// loadRetry is the snapshot load policy: a few quick attempts absorb
// briefly flaky storage; deterministic rejections skip straight to the
// previous generation.
var loadRetry = checkpoint.LoadOptions{Tries: 3, Backoff: 25 * time.Millisecond}

// OpenStore opens the generation store rooted next to path (generations
// are path.000001, ... plus a MANIFEST in the same directory) for reading
// snapshots. Unlike the daemon it never quarantines a corrupt manifest —
// replay is a read-only consumer of another process's store.
func OpenStore(path string, retain int) (*checkpoint.Store, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	return checkpoint.OpenStore(dir, base, retain, nil)
}

// LoadSnapshot decodes the newest usable generation — one that passes its
// checksum, decodes, validates against cfg, and passes accept (nil accepts
// all) — falling back generation by generation. Returns the snapshot and
// its generation number.
func LoadSnapshot(store *checkpoint.Store, cfg Config, k int, accept func(*Snapshot) error) (*Snapshot, uint64, error) {
	var ck Snapshot
	gen, err := store.Load(loadRetry, func(r io.Reader) error {
		ck = Snapshot{}
		if err := json.NewDecoder(r).Decode(&ck); err != nil {
			return fmt.Errorf("decode: %v: %w", err, checkpoint.ErrCorrupt)
		}
		if err := ck.Validate(cfg, k); err != nil || accept == nil {
			return err
		}
		return accept(&ck)
	})
	if err != nil {
		return nil, 0, err
	}
	return &ck, gen, nil
}

// QFromPolicyFile interprets the bytes of a -policy file: a full snapshot
// (a checkpoint generation file) yields its embedded Q function, anything
// else is taken as raw SaveQ bytes.
func QFromPolicyFile(b []byte) []byte {
	var ck Snapshot
	if err := json.Unmarshal(b, &ck); err == nil && ck.Version > 0 && len(ck.Q) > 0 {
		return ck.Q
	}
	return b
}

// TableFromPolicyFile interprets the bytes of a -table file: a full
// snapshot yields its embedded P_safe, anything else is taken as raw
// Table JSON.
func TableFromPolicyFile(b []byte) []byte {
	var ck Snapshot
	if err := json.Unmarshal(b, &ck); err == nil && ck.Version > 0 && len(ck.Table) > 0 {
		return ck.Table
	}
	return b
}
