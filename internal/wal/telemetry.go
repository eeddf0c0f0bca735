package wal

import "jarvis/internal/telemetry"

// Metric handles are resolved once at package init so Commit — the
// serving-path hot spot — touches only atomics, keeping the journal write
// allocation-free (asserted by BenchmarkWALAppend and BenchmarkWALCommit16).
// wal.appends counts records and wal.writes counts write(2) calls, so
// their ratio is the records each write carries.
var (
	mAppends          = telemetry.Default.Counter("wal.appends")
	mWrites           = telemetry.Default.Counter("wal.writes")
	mSyncs            = telemetry.Default.Counter("wal.syncs")
	mRotations        = telemetry.Default.Counter("wal.rotations")
	mResets           = telemetry.Default.Counter("wal.resets")
	mRetired          = telemetry.Default.Counter("wal.segments.retired")
	mRecoveredRecords = telemetry.Default.Counter("wal.recovered.records")
	mTruncatedBytes   = telemetry.Default.Counter("wal.truncated.bytes")
	mSegments         = telemetry.Default.Gauge("wal.segments")
)
