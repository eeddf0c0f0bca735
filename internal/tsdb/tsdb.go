// Package tsdb is an embedded, per-daemon time-series store for telemetry
// snapshots: a wal.Log of delta-encoded metric samples, plus an in-memory
// copy of recent points that the query side (range, rate, delta,
// quantile-over-time) serves from.
//
// The daemon appends one Point — every counter, gauge, and histogram in
// the registry, labeled series included — every -ts-interval. The SLO
// tracker scores its window from the store, `jarvisctl top` sparklines
// p99s from it, and with a directory a restart loses at most the tail the
// crash tore.
//
// # Storage
//
// Open(dir, ...) keeps the samples in a wal.Log named "tsw" (segments
// 00000001.tsw, ...; metrics tsw.appends, tsw.segments, ...) opened with
// SyncOnRotate. The log owns framing, checksums, rotation, retention,
// directory syncs and torn-tail repair. Open("", ...) is an in-memory
// store with no log: the same window and query code over the points
// alone, bounded by Options.MemoryPoints.
//
// # Sample format
//
// One log record is one sample:
//
//	kind   u8      1 = full, 2 = delta
//	ts     uvarint unix nanoseconds
//	count  uvarint series entries that follow
//	entry: id uvarint; a first-seen id is followed by its declaration
//	       (type u8, name len uvarint, name bytes); then the value,
//	       encoded as a zigzag-varint delta against the decoder's last
//	       value for that id (counters, histogram scalars and bucket
//	       counts) or as 8 raw float64 bits (gauges).
//
// A full record resets the decoder — dictionary and last-values — and
// then lists every live series, so its deltas are absolute values. The
// store places its own segment seams (Log.Rotate) so that every segment
// opens with a full record, which makes each segment independently
// decodable: retention can delete old segments without orphaning the
// deltas in newer ones. A delta record lists only the series that changed
// since the previous record, so a quiet interval costs a few dozen bytes,
// not a full snapshot. A failed append drops the delta baseline, so the
// next record is full and never names an id the log did not receive.
//
// # Recovery
//
// wal.Open truncates a torn tail and reports damage in a sealed segment
// as ErrCorrupt. Open then replays the log into the in-memory points. A
// record that passes its checksum but does not decode is skipped, with
// the deltas after it, up to the next full record. The first append after
// Open always writes a full record, so a reopened log never extends a
// baseline it did not verify.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
)

// logName names the store's wal.Log: its segment suffix and metric prefix.
const logName = "tsw"

// MaxRecordBytes bounds one sample's payload: the log's record bound.
const MaxRecordBytes = wal.MaxRecordBytes

// ErrCorrupt reports structural damage in a sealed segment — damage a
// torn tail write cannot explain.
var ErrCorrupt = wal.ErrCorrupt

// Point is one decoded sample: every series' value at one instant.
type Point struct {
	TsNs       int64
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]telemetry.HistogramStats
}

// FromSnapshot projects a registry snapshot onto a Point (events and
// infos are not time series and are dropped).
func FromSnapshot(s telemetry.Snapshot) Point {
	return Point{
		TsNs:       s.UnixNs,
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
}

// Options tunes a DB. The zero value is usable: 1 MiB segments, retain 8
// sealed segments, keep 4096 points in memory.
type Options struct {
	// SegmentBytes starts a new segment before a sample whose payload
	// would take the active one past this size (default 1 MiB).
	SegmentBytes int64
	// Retain caps sealed segments kept after rotation (default 8; <0
	// keeps everything).
	Retain int
	// MemoryPoints caps the in-memory points the query side reads
	// (default 4096; oldest evicted first). Disk retention and this cap
	// are independent bounds; an in-memory store has only this one.
	MemoryPoints int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Retain == 0 {
		o.Retain = 8
	}
	if o.MemoryPoints <= 0 {
		o.MemoryPoints = 4096
	}
	return o
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	Segments       int
	Points         int
	TruncatedBytes int64
}

// Stats is the live footprint /healthz reports.
type Stats struct {
	Segments    int   `json:"segments"`
	SizeBytes   int64 `json:"sizeBytes"`
	Points      int   `json:"points"`
	SeriesCount int   `json:"seriesCount"`
	OldestNs    int64 `json:"oldestNs,omitempty"`
	NewestNs    int64 `json:"newestNs,omitempty"`
}

// DB is one daemon's metric history. All methods are safe for concurrent
// use.
type DB struct {
	opts Options
	log  *wal.Log // nil for an in-memory store

	mu     sync.Mutex
	closed bool
	rec    RecoveryStats

	// points is the in-memory copy the queries read, ascending by TsNs.
	points []Point

	// enc is the delta baseline for the active segment; nil forces the
	// next append to write a full record.
	enc     *encoder
	scratch []byte
}

// Open returns a DB ready to append. With a directory it opens (creating
// if needed) the store's log there and replays it into memory; with dir
// "" the store lives in memory only.
func Open(dir string, opts Options) (*DB, error) {
	return open(dir, opts, nil)
}

// open is Open with the log's segment-file hook (fault injection).
func open(dir string, opts Options, openFile func(string, int, os.FileMode) (wal.File, error)) (*DB, error) {
	db := &DB{opts: opts.withDefaults()}
	if dir == "" {
		return db, nil
	}
	log, err := wal.Open(dir, wal.Options{
		Name:   logName,
		Policy: wal.SyncOnRotate,
		// Append places every seam, so the log never rotates on its own.
		SegmentBytes: math.MaxInt64,
		Retain:       max(db.opts.Retain, 0),
		OpenFile:     openFile,
	})
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	dec, skipping := newDecoder(), false
	err = log.Replay(func(payload []byte) error {
		if skipping && (len(payload) == 0 || payload[0] != kindFull) {
			return nil // a delta against a baseline that did not decode
		}
		p, err := dec.decode(payload)
		if skipping = err != nil; !skipping {
			db.appendPointLocked(p)
			db.rec.Points++
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	rs := log.Recovery()
	db.rec.Segments, db.rec.TruncatedBytes = rs.Segments, rs.TruncatedBytes
	db.log = log
	return db, nil
}

// Recovery reports what Open found (and repaired) on disk.
func (db *DB) Recovery() RecoveryStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rec
}

// Dir returns the store's log directory, "" for an in-memory store.
func (db *DB) Dir() string {
	if db.log == nil {
		return ""
	}
	return db.log.Dir()
}

// Append stores one snapshot. Points must arrive in non-decreasing
// timestamp order; an out-of-order point is dropped (clock steps during
// failover are not worth corrupting the history for).
func (db *DB) Append(p Point) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("tsdb: closed")
	}
	if n := len(db.points); n > 0 && p.TsNs < db.points[n-1].TsNs {
		return nil
	}
	if db.log != nil {
		if err := db.logLocked(p); err != nil {
			// The encoder may hold ids the log never received.
			db.enc = nil
			return err
		}
	}
	db.appendPointLocked(p)
	return nil
}

// logLocked writes p as one record: a delta against enc, or a full record
// when there is no baseline or p opens a new segment.
func (db *DB) logLocked(p Point) error {
	full := db.enc == nil
	if full {
		db.enc = newEncoder()
	}
	payload := encodePoint(db.scratch[:0], p, db.enc, full)
	if size := db.log.ActiveBytes(); size > 0 && size+int64(len(payload)) > db.opts.SegmentBytes {
		if err := db.log.Rotate(); err != nil {
			return fmt.Errorf("tsdb: %w", err)
		}
		db.enc = newEncoder()
		payload = encodePoint(payload[:0], p, db.enc, true)
	}
	db.scratch = payload[:0]
	if err := db.log.Append(payload); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	db.enc.observe(p)
	return nil
}

// Sync flushes the log to stable storage. The append path does not fsync
// per sample — metric history is derived data; losing the last interval
// to power loss is acceptable — so callers with stricter needs (tests,
// clean shutdown) sync explicitly.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.log == nil {
		return nil
	}
	return db.log.Sync()
}

// Close syncs and closes the log.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.log == nil {
		return nil
	}
	return db.log.Close()
}

// Stats reports the store's live footprint.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := Stats{Points: len(db.points)}
	if db.log != nil {
		s.Segments, s.SizeBytes = db.log.Segments(), db.log.SizeBytes()
	}
	if n := len(db.points); n > 0 {
		s.OldestNs = db.points[0].TsNs
		s.NewestNs = db.points[n-1].TsNs
		last := db.points[n-1]
		s.SeriesCount = len(last.Counters) + len(last.Gauges) + len(last.Histograms)
	}
	return s
}

func (db *DB) appendPointLocked(p Point) {
	db.points = append(db.points, p)
	if over := len(db.points) - db.opts.MemoryPoints; over > 0 {
		db.points = append(db.points[:0], db.points[over:]...)
	}
}
