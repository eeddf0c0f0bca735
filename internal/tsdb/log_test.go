package tsdb

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"jarvis/internal/telemetry"
	"jarvis/internal/wal"
)

// segSuffix is the store's segment file suffix.
const segSuffix = "." + logName

// listSegments returns the numbers of the store's segments in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, name := range names {
		seq, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(name), segSuffix), 10, 64)
		if err == nil {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// failingFile fails the next write while fail is set, writing nothing.
type failingFile struct {
	*os.File
	fail *atomic.Bool
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.fail.Swap(false) {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

// TestFailedAppendKeepsLaterHistory: a failed write must not leave the
// encoder holding ids the log never received. The failed point declares
// a new series; the points after it must still decode on reopen.
func TestFailedAppendKeepsLaterHistory(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	db, err := open(dir, Options{}, func(name string, flag int, perm os.FileMode) (wal.File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return failingFile{f, &fail}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(mkPoint(1000, map[string]int64{"a": 1}, nil)); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := db.Append(mkPoint(2000, map[string]int64{"a": 2, "b": 1}, nil)); err == nil {
		t.Fatal("injected write failure was not reported")
	}
	for i := int64(3); i <= 6; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"a": i, "b": i}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Points; got != 5 {
		t.Fatalf("in-memory points = %d, want 5 (the failed point is not kept)", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rec := db2.Recovery(); rec.Points != 5 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want 5 points and nothing truncated", rec)
	}
	if p, _ := db2.Latest(); p.TsNs != 6000 || p.Counters["a"] != 6 || p.Counters["b"] != 6 {
		t.Fatalf("latest after reopen = %+v, want ts 6000 a=6 b=6", p)
	}
}

// TestUndecodableRecordSkipsToNextFull: a record that passes the log's
// checksum but does not decode is skipped with the deltas after it; Open
// does not fail, nothing is truncated, and points from the next full
// record on survive.
func TestUndecodableRecordSkipsToNextFull(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Name: logName})
	if err != nil {
		t.Fatal(err)
	}
	var enc *encoder
	write := func(payload []byte) {
		t.Helper()
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	sample := func(i int64, full bool) {
		if full {
			enc = newEncoder()
		}
		p := mkPoint(i*1000, map[string]int64{"c": i * 10}, nil)
		write(encodePoint(nil, p, enc, full))
		enc.observe(p)
	}
	sample(1, true)
	sample(2, false)
	write([]byte{kindDelta, 0x01}) // well framed; the series count is missing
	sample(3, false)               // a delta against the lost baseline
	sample(4, true)
	sample(5, false)
	size := log.SizeBytes()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("an undecodable record mid-log must not fail Open: %v", err)
	}
	defer db.Close()
	if rec := db.Recovery(); rec.Points != 4 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want 4 points and nothing truncated", rec)
	}
	var got []int64
	for _, s := range db.Series("c", 0, 10_000) {
		got = append(got, s.TsNs)
	}
	if want := []int64{1000, 2000, 4000, 5000}; !equalInts(got, want) {
		t.Fatalf("recovered timestamps %v, want %v", got, want)
	}
	if st := db.Stats(); st.SizeBytes != size {
		t.Fatalf("log holds %d bytes after Open, want %d (replay must not truncate)", st.SizeBytes, size)
	}
	if err := db.Append(mkPoint(6000, map[string]int64{"c": 60}, nil)); err != nil {
		t.Fatal(err)
	}
	if p, _ := db.Latest(); p.Counters["c"] != 60 {
		t.Fatalf("latest = %+v, want c=60", p)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInMemoryStore: Open("") keeps no log and never holds more than its
// point cap, and its queries read the same edges as an on-disk store's.
func TestInMemoryStore(t *testing.T) {
	db, err := Open("", Options{MemoryPoints: 7})
	if err != nil {
		t.Fatal(err)
	}
	if db.Dir() != "" {
		t.Fatalf("Dir = %q, want empty for an in-memory store", db.Dir())
	}
	for i := int64(1); i <= 50; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"c": i}, nil)); err != nil {
			t.Fatal(err)
		}
		if n := db.Stats().Points; n > 7 {
			t.Fatalf("after %d appends the store holds %d points, cap 7", i, n)
		}
	}
	st := db.Stats()
	if st.Points != 7 || st.OldestNs != 44000 || st.Segments != 0 || st.SizeBytes != 0 {
		t.Fatalf("stats = %+v, want 7 points from ts 44000 and no segments", st)
	}
	if v, ok := db.Delta("c", 0, 100_000); !ok || v != 6 {
		t.Fatalf("Delta = %v ok=%v, want 6 (50 - 44)", v, ok)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(mkPoint(60000, nil, nil)); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestLogMetricsStayApart: the store's appends, rotations and retention
// move its own tsw.* metrics and leave the journal's wal.* alone, in a
// process that holds both logs.
func TestLogMetricsStayApart(t *testing.T) {
	journal, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if err := journal.Append([]byte("journal record")); err != nil {
		t.Fatal(err)
	}
	walNames := []string{"wal.appends", "wal.writes", "wal.syncs", "wal.rotations"}
	before := telemetry.Default.Snapshot()

	db, err := Open(t.TempDir(), Options{SegmentBytes: 128, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 40; i++ {
		if err := db.Append(mkPoint(i*1000, map[string]int64{"some.counter.with.a.long.name": i * 7}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default.Snapshot()

	for _, name := range walNames {
		if d := after.Counters[name] - before.Counters[name]; d != 0 {
			t.Errorf("%s moved by %d under store traffic", name, d)
		}
	}
	if b, a := before.Gauges["wal.segments"], after.Gauges["wal.segments"]; a != b {
		t.Errorf("wal.segments gauge went %v -> %v under store traffic", b, a)
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("tsw.appends"); d != 40 {
		t.Errorf("tsw.appends +%d, want +40", d)
	}
	for _, name := range []string{"tsw.writes", "tsw.syncs", "tsw.rotations", "tsw.segments.retired"} {
		if delta(name) <= 0 {
			t.Errorf("%s did not move under store traffic", name)
		}
	}
	if g := after.Gauges["tsw.segments"]; g != 2 {
		t.Errorf("tsw.segments = %v, want 2 (one sealed segment retained plus the active one)", g)
	}
}
