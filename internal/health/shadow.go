package health

import (
	"sync/atomic"
	"time"

	"jarvis/internal/replay"
	"jarvis/internal/telemetry"
)

// Gauge names the shadow evaluator publishes; DefaultRules fires on them.
const (
	GaugeDivergenceRate = "health.shadow.divergence_rate"
	GaugeRewardDelta    = "health.shadow.reward_delta"
	GaugeViolationDelta = "health.shadow.violation_delta"
)

// ShadowConfig configures a shadow evaluator.
type ShadowConfig struct {
	// Config must match the daemon's learning configuration (same contract
	// as replay.Verify).
	Config replay.Config
	// Source names the WAL directory and checkpoint store to replay from.
	Source replay.Source
	// Devices is the home's device count, needed to pre-check that a
	// checkpoint generation is restorable before paying for a replay.
	Devices int
	// Registry receives the drift gauges (default telemetry.Default).
	Registry *telemetry.Registry
	Logf     func(format string, args ...any)
	Now      func() time.Time
}

// ShadowReport is the outcome of one shadow evaluation, published at
// /debug/alerts and in /healthz.
type ShadowReport struct {
	UnixNs     int64 `json:"unixNs"`
	DurationMs int64 `json:"durationMs"`
	// Compared counts position-aligned decision pairs (events + recs);
	// Recommends counts just the replayed recommendations, the denominator
	// of DivergenceRate.
	Compared          int `json:"compared"`
	Recommends        int `json:"recommends"`
	ActionDivergences int `json:"actionDivergences"`
	// DivergenceRate is ActionDivergences / Recommends: events replay
	// recorded actions verbatim on both sides, so only recommendations can
	// diverge, and dividing by all compared decisions would dilute the
	// signal by the traffic mix.
	DivergenceRate float64 `json:"divergenceRate"`
	// RewardDelta is live-policy minus checkpoint-trajectory counterfactual
	// recommendation reward; ViolationDelta likewise for safety violations.
	RewardDelta    float64 `json:"rewardDelta"`
	ViolationDelta int     `json:"violationDelta"`
	Err            string  `json:"err,omitempty"`
}

// Shadow replays the recorded WAL window through replay.WhatIf, comparing
// the live Q function (variant) against the newest checkpoint generation
// plus the recorded learning stream (baseline — which PR 6's determinism
// guarantees is the live trajectory itself). A healthy daemon therefore
// measures ≈ 0 divergence; a poisoned or runaway live policy shows up as
// recommendation flips the very next evaluation.
//
// Concurrency: the daemon calls TryBegin under its state lock to claim
// the single evaluation slot and serialize Q capture, then runs Run on
// its own goroutine, off the request lock — a replay costs tens of
// milliseconds and must never extend a request's critical section.
type Shadow struct {
	cfg     ShadowConfig
	running atomic.Bool
	last    atomic.Pointer[ShadowReport]

	gDivergence *telemetry.Gauge
	gReward     *telemetry.Gauge
	gViolations *telemetry.Gauge
	cRuns       *telemetry.Counter
	cFailures   *telemetry.Counter
	cSkips      *telemetry.Counter
}

// NewShadow builds a shadow evaluator and resolves its metric handles.
func NewShadow(cfg ShadowConfig) *Shadow {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Shadow{
		cfg:         cfg,
		gDivergence: cfg.Registry.Gauge(GaugeDivergenceRate),
		gReward:     cfg.Registry.Gauge(GaugeRewardDelta),
		gViolations: cfg.Registry.Gauge(GaugeViolationDelta),
		cRuns:       cfg.Registry.Counter("health.shadow.runs"),
		cFailures:   cfg.Registry.Counter("health.shadow.failures"),
		cSkips:      cfg.Registry.Counter("health.shadow.skips"),
	}
}

// TryBegin claims the single evaluation slot. The caller must follow up
// with exactly one Run or FailCapture, which releases it.
func (s *Shadow) TryBegin() bool {
	return s.running.CompareAndSwap(false, true)
}

// FailCapture releases the slot claimed by TryBegin when the live Q could
// not even be serialized. An unserializable policy (non-finite values) is
// drift by definition, so the divergence gauge pegs to 1 and the default
// policy-drift rule fires on the next evaluation.
func (s *Shadow) FailCapture(err error) {
	defer s.running.Store(false)
	s.cFailures.Inc()
	s.gDivergence.Set(1)
	r := &ShadowReport{UnixNs: s.cfg.Now().UnixNano(), DivergenceRate: 1, Err: err.Error()}
	s.last.Store(r)
	s.cfg.Logf("health: shadow capture failed: %v", err)
}

// Run executes one shadow evaluation with the captured live Q bytes and
// publishes the drift gauges. Call only after TryBegin returned true.
func (s *Shadow) Run(liveQ []byte) *ShadowReport {
	defer s.running.Store(false)
	start := s.cfg.Now()

	// A what-if replay with no restorable checkpoint would silently fall
	// back to fresh optimizer training — two orders of magnitude slower and
	// a meaningless baseline. Pre-check and skip until a generation exists.
	st, err := replay.OpenStore(s.cfg.Source.CheckpointPath, s.cfg.Source.CheckpointRetain)
	if err == nil {
		_, _, err = replay.LoadSnapshot(st, s.cfg.Config, s.cfg.Devices, nil)
	}
	if err != nil {
		s.cSkips.Inc()
		s.cfg.Logf("health: shadow skipped (no usable checkpoint: %v)", err)
		return nil
	}

	rep, err := replay.WhatIf(replay.WhatIfOptions{
		Config:  s.cfg.Config,
		Source:  s.cfg.Source,
		At:      0,
		PolicyQ: liveQ,
	})
	out := &ShadowReport{UnixNs: start.UnixNano()}
	if err != nil {
		s.cFailures.Inc()
		out.Err = err.Error()
		out.DivergenceRate = 1 // a policy that can't replay is divergent
		s.gDivergence.Set(1)
		s.last.Store(out)
		s.cfg.Logf("health: shadow replay failed: %v", err)
		return out
	}
	s.cRuns.Inc()
	out.DurationMs = s.cfg.Now().Sub(start).Milliseconds()
	out.Compared = rep.Compared
	out.Recommends = rep.Variant.Recommends
	out.ActionDivergences = rep.ActionDivergences
	if out.Recommends > 0 {
		out.DivergenceRate = float64(rep.ActionDivergences) / float64(out.Recommends)
	}
	out.RewardDelta = rep.RewardDelta
	out.ViolationDelta = rep.ViolationDelta

	s.gDivergence.Set(out.DivergenceRate)
	s.gReward.Set(out.RewardDelta)
	s.gViolations.Set(float64(out.ViolationDelta))
	s.last.Store(out)
	return out
}

// Last returns the most recent report (nil before the first evaluation).
func (s *Shadow) Last() *ShadowReport { return s.last.Load() }

// Running reports whether an evaluation is in flight.
func (s *Shadow) Running() bool { return s.running.Load() }
