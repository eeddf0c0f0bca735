// Command jarvisd runs a Jarvis hub daemon: it builds the 11-device smart
// home, runs a simulated learning phase, trains the constrained optimizer,
// and then serves a JSON-lines protocol over TCP:
//
//	{"op":"state"}                                   → current environment state
//	{"op":"event","device":"oven","action":"power_on"} → apply a device action
//	{"op":"recommend"}                               → Jarvis's best safe action now
//	{"op":"violations"}                              → unsafe transitions seen so far
//	{"op":"checkpoint"}                              → force a checkpoint save now
//	{"op":"learnstate"}                              → online-learning fingerprint
//	{"op":"promote"}                                 → follower only: promote to primary
//
// Connections whose first byte is the wire magic (0xB7) are served the
// length-prefixed binary codec instead — same ops, indices for names,
// with buffered requests coalesced into batch-scored responses; anything
// else falls through to the JSON loop, so old clients are untouched.
// Steady-state recommendations come from a compiled policy table when
// the state space fits one, and from the agent otherwise.
//
// With -follow, the daemon starts as a hot standby instead: it streams the
// primary's WAL (connections opening with the replication magic 0xB8),
// applies every shipped record through the same machinery crash recovery
// uses, serves read-only recommendations from the replica policy, and
// promotes itself to a full primary when the primary goes silent past
// -promote-after (or on an explicit promote op).
//
// Every applied event is checked against the learned P_safe; unsafe
// transitions are executed (the hub is a monitor, not a gate) but flagged
// and counted, mirroring the paper's enforcement discussion.
//
// A second HTTP listener (-debug-addr, default 127.0.0.1:7464) serves the
// observability surface: /metrics (JSON telemetry snapshot, or Prometheus
// text exposition with ?format=prom), /healthz (degraded-mode aware),
// /debug/traces (sampled request traces; /debug/traces/chrome exports
// Chrome trace_event JSON), /debug/vars (expvar), and /debug/pprof. With
// -log-decisions, every recommendation and checked event is appended to a
// JSON-lines decision log for offline audit; with -trace-sample N, one in
// every N requests is traced through the whole pipeline and its trace ID
// stamped into the decision log. -profile-dir captures an automated CPU
// profile window plus a heap snapshot on shutdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jarvis/internal/health"
	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jarvisd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jarvisd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7463", "listen address")
	seed := fs.Int64("seed", 1, "random seed for the learning phase")
	learningDays := fs.Int("learning-days", 7, "simulated learning-phase length")
	episodes := fs.Int("episodes", 60, "optimizer training episodes")
	useDNN := fs.Bool("dnn", false, "train the deep Q network backend instead of the tabular default (checkpoints are backend-specific)")
	ckpt := fs.String("checkpoint", "", "checkpoint base path: restore the newest valid generation on start, save a new one on shutdown (empty = disabled)")
	ckptRetain := fs.Int("checkpoint-retain", 4, "checkpoint generations to keep on disk")
	walDir := fs.String("wal", "", "write-ahead log directory: journal events and learning transitions, replay them after a crash (empty = disabled)")
	walSync := fs.String("wal-sync", "record", "WAL fsync policy: record | interval | rotate")
	maxQueue := fs.Int("max-queue", 64, "admission threshold: shed learning above half this many inflight requests, recommendations above it (negative = never shed)")
	onlineEvery := fs.Int("online-train-every", 4, "run one online learn step per N ingested transitions (negative = disabled)")
	fixedMinute := fs.Int("fixed-minute", 0, "pin the minute-of-day for deterministic replay testing (0 = wall clock)")
	debugAddr := fs.String("debug-addr", "127.0.0.1:7464", "HTTP address for /metrics, /healthz, /debug/vars and /debug/pprof (empty = disabled)")
	logDecisions := fs.String("log-decisions", "", "append one JSON line per recommendation/event decision to this file (empty = disabled)")
	logDecisionsMaxBytes := fs.Int64("log-decisions-max-bytes", 0, "rotate the decision log once the active file would exceed this many bytes (0 = one unbounded file)")
	logDecisionsKeep := fs.Int("log-decisions-keep", 4, "rotated decision-log files to keep beside the active one")
	traceSample := fs.Int("trace-sample", 0, "trace one in every N requests through the pipeline (1 = every request, 0 = disabled)")
	traceRing := fs.Int("trace-ring", 0, "completed traces retained for /debug/traces (0 = default)")
	anomalyFilter := fs.Bool("anomaly-filter", false, "train the benign-anomaly ANN and score every recommendation through it")
	alertRules := fs.String("alert-rules", "", "alert rules file (JSON; empty = built-in defaults, \"none\" = disable alerting)")
	alertLog := fs.String("alert-log", "", "append one JSON line per alert firing/resolved transition to this file (empty = disabled)")
	sloWindow := fs.Duration("slo-window", 10*time.Minute, "rolling window for SLO error-budget burn rates")
	tsdbDir := fs.String("tsdb", "", "on-disk metric history directory: append one telemetry snapshot per -ts-interval, serve range queries on /debug/tsdb (empty = keep only the SLO window, in memory)")
	tsInterval := fs.Duration("ts-interval", 0, "metric history append cadence (0 = the health-evaluation interval)")
	shadowEvery := fs.Int("shadow-every", 32, "run one shadow policy evaluation per N online learn steps (<= 0 = disabled; needs -wal and -checkpoint)")
	profileDir := fs.String("profile-dir", "", "capture cpu.pprof (first -profile-cpu-window) and a shutdown heap.pprof into this directory (empty = disabled)")
	profileCPUWindow := fs.Duration("profile-cpu-window", 30*time.Second, "how long the automated CPU profile records")
	idle := fs.Duration("idle-timeout", 5*time.Minute, "drop connections idle longer than this")
	writeTimeout := fs.Duration("write-timeout", 10*time.Second, "per-response write deadline")
	follow := fs.String("follow", "", "start as a hot standby streaming the WAL from the primary at this address (empty = primary)")
	promoteAfter := fs.Duration("promote-after", 5*time.Second, "follower: self-promote to primary after this much primary silence (negative = only on explicit promote)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var syncPolicy wal.SyncPolicy
	switch *walSync {
	case "record":
		syncPolicy = wal.SyncEveryRecord
	case "interval":
		syncPolicy = wal.SyncInterval
	case "rotate":
		syncPolicy = wal.SyncOnRotate
	default:
		return fmt.Errorf("unknown -wal-sync %q (want record, interval, or rotate)", *walSync)
	}
	var alertingOff bool
	var rules []health.Rule
	switch *alertRules {
	case "":
		// nil rules = built-in defaults.
	case "none", "off":
		alertingOff = true
	default:
		var err error
		if rules, err = health.LoadRules(*alertRules); err != nil {
			return err
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	// The profiler starts before training so the CPU window covers the
	// expensive startup phase as well as early serving.
	prof := startProfiler(*profileDir, *profileCPUWindow, logf)
	defer prof.Stop()

	fmt.Fprintf(os.Stderr, "jarvisd: learning phase (%d days) and optimizer training...\n", *learningDays)
	srv, err := newServer(serverConfig{
		Seed:                *seed,
		LearningDays:        *learningDays,
		Episodes:            *episodes,
		UseDNN:              *useDNN,
		CheckpointPath:      *ckpt,
		CheckpointRetain:    *ckptRetain,
		WALDir:              *walDir,
		WALSync:             syncPolicy,
		MaxQueue:            *maxQueue,
		OnlineTrainEvery:    *onlineEvery,
		FixedMinute:         *fixedMinute,
		DebugAddr:           *debugAddr,
		DecisionLogPath:     *logDecisions,
		DecisionLogMaxBytes: *logDecisionsMaxBytes,
		DecisionLogKeep:     *logDecisionsKeep,
		TraceSample:         *traceSample,
		TraceRing:           *traceRing,
		AlertRules:          rules,
		AlertingOff:         alertingOff,
		AlertLogPath:        *alertLog,
		SLOWindow:           *sloWindow,
		TSDBDir:             *tsdbDir,
		TSInterval:          *tsInterval,
		ShadowEvery:         *shadowEvery,
		AnomalyFilter:       *anomalyFilter,
		IdleTimeout:         *idle,
		WriteTimeout:        *writeTimeout,
		FollowAddr:          *follow,
		PromoteAfter:        *promoteAfter,
		Logf:                logf,
	})
	if err != nil {
		return err
	}
	if err := srv.listen(*addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "jarvisd: listening on %s (P_safe: %d transitions)\n", srv.Addr(), srv.sys.SafeTable().Len())
	if da := srv.DebugAddr(); da != "" {
		fmt.Fprintf(os.Stderr, "jarvisd: debug endpoints on http://%s (/metrics /healthz /debug/vars /debug/pprof)\n", da)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "jarvisd: shutting down")
	// Close drains the handlers, writes the final checkpoint, and flushes
	// the decision log; the final snapshot then captures everything the
	// daemon counted, so the last observable state survives on stderr even
	// after the /metrics listener is gone.
	err = srv.Close()
	snap := telemetry.Default.Snapshot()
	snap.Events = nil // keep the farewell line compact
	if b, merr := json.Marshal(snap); merr == nil {
		fmt.Fprintf(os.Stderr, "jarvisd: final telemetry snapshot: %s\n", b)
	}
	return err
}
