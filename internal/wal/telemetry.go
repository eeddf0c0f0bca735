package wal

import "jarvis/internal/telemetry"

// metrics are one log's handles, resolved at Open from Options.Name so
// that Commit — the serving-path hot spot — touches only atomics, keeping
// the journal write allocation-free (asserted by BenchmarkWALAppend and
// BenchmarkWALCommit16). <name>.appends counts records and <name>.writes
// counts write(2) calls, so their ratio is the records each write
// carries. Logs that share a name share the handles.
type metrics struct {
	appends, writes, syncs, rotations, resets, retired *telemetry.Counter
	recoveredRecords, truncatedBytes                   *telemetry.Counter
	segments                                           *telemetry.Gauge
}

func newMetrics(name string) *metrics {
	r := telemetry.Default
	return &metrics{
		appends:          r.Counter(name + ".appends"),
		writes:           r.Counter(name + ".writes"),
		syncs:            r.Counter(name + ".syncs"),
		rotations:        r.Counter(name + ".rotations"),
		resets:           r.Counter(name + ".resets"),
		retired:          r.Counter(name + ".segments.retired"),
		recoveredRecords: r.Counter(name + ".recovered.records"),
		truncatedBytes:   r.Counter(name + ".truncated.bytes"),
		segments:         r.Gauge(name + ".segments"),
	}
}
