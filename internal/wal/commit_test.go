package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"jarvis/internal/telemetry"
)

// spyFile counts a segment file's writes and syncs. A positive tearAfter
// tears the next write: only that many bytes of it reach the file and it
// fails — a crash or a full disk in the middle of one write(2).
type spyFile struct {
	*os.File
	writes, syncs *atomic.Int64
	tearAfter     *atomic.Int64
}

func (f spyFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	if n := f.tearAfter.Swap(0); n > 0 {
		w, _ := f.File.Write(p[:min(int64(len(p)), n)])
		return w, errors.New("torn write")
	}
	return f.File.Write(p)
}

func (f spyFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

type spy struct{ writes, syncs, tearAfter atomic.Int64 }

func (s *spy) open(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return spyFile{f, &s.writes, &s.syncs, &s.tearAfter}, nil
}

func batchOf(recs ...string) *Batch {
	var b Batch
	for _, r := range recs {
		if err := b.Add([]byte(r)); err != nil {
			panic(err)
		}
	}
	return &b
}

func counter(name string) int64 { return telemetry.Default.Snapshot().Counters[name] }

// TestCommitIsOneWrite: a batch of records reaches the segment in one
// write(2) and one fsync, counts each record in wal.appends and the write
// once in wal.writes, and replays in order.
func TestCommitIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	var s spy
	l := mustOpen(t, dir, Options{OpenFile: s.open})
	var want []string
	for i := 0; i < 16; i++ {
		want = append(want, fmt.Sprintf("rec-%02d", i))
	}
	appends0, writes0 := counter("wal.appends"), counter("wal.writes")
	b := batchOf(want...)
	if err := l.Commit(b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if w, sy := s.writes.Load(), s.syncs.Load(); w != 1 || sy != 1 {
		t.Errorf("16-record commit made %d writes and %d syncs, want 1 and 1", w, sy)
	}
	if a, w := counter("wal.appends")-appends0, counter("wal.writes")-writes0; a != 16 || w != 1 {
		t.Errorf("wal.appends +%d, wal.writes +%d; want +16, +1", a, w)
	}
	if b.Len() != 16 {
		t.Errorf("Commit changed the caller's batch: Len %d", b.Len())
	}
	b.Reset()
	if err := l.Commit(b); err != nil || s.writes.Load() != 1 {
		t.Errorf("empty commit: err %v, writes %d; want a no-op", err, s.writes.Load())
	}
	appendAll(t, l, "tail") // Append is a one-record commit
	l.Close()
	got := replayAll(t, mustOpen(t, dir, Options{}))
	if want = append(want, "tail"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("replay = %v, want %v", got, want)
	}
}

// TestCommitNeverSplitsABatch: a batch that would overflow the active
// segment rotates first and lands whole in the next one.
func TestCommitNeverSplitsABatch(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	appendAll(t, l, "first-record-xxxxxxxxxxxxxxxx") // 37 bytes framed
	if err := l.Commit(batchOf("a-xxxxxxxxxx", "b-xxxxxxxxxx", "c-xxxxxxxxxx")); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 2 {
		t.Fatalf("segments = %d, want 2 (the batch rotates, then lands whole)", l.Segments())
	}
	l.Close()
	for seq, want := range map[int]int64{1: 37, 2: 3 * (headerSize + 12)} {
		if st, err := os.Stat(segFile(dir, seq)); err != nil || st.Size() != want {
			t.Errorf("segment %d: %v bytes (%v), want %d", seq, st.Size(), err, want)
		}
	}
}

// TestTornMultiFrameCommitTruncated: a commit torn inside its third frame
// (the write reached the file only partly) recovers to the last whole
// frame, and appending resumes cleanly after it.
func TestTornMultiFrameCommitTruncated(t *testing.T) {
	dir := t.TempDir()
	var s spy
	l := mustOpen(t, dir, Options{OpenFile: s.open})
	appendAll(t, l, "acked-1", "acked-2")
	frame := int64(headerSize + len("batch-0"))
	s.tearAfter.Store(2*frame + 5)
	if err := l.Commit(batchOf("batch-0", "batch-1", "batch-2", "batch-3")); err == nil {
		t.Fatal("torn commit reported success")
	}
	l.Close()

	l2 := mustOpen(t, dir, Options{})
	if rec := l2.Recovery(); rec.Records != 4 || rec.TruncatedBytes != 5 {
		t.Errorf("recovery = %+v, want 4 whole records and 5 torn bytes cut", rec)
	}
	if got := replayAll(t, l2); fmt.Sprint(got) != "[acked-1 acked-2 batch-0 batch-1]" {
		t.Errorf("replay = %v, want the acked records and the whole frames of the torn batch", got)
	}
	appendAll(t, l2, "after")
	l2.Close()
	if got := replayAll(t, mustOpen(t, dir, Options{})); len(got) != 5 || got[4] != "after" {
		t.Errorf("append after repair: replay = %v", got)
	}
}

// TestIntervalSyncsIdleTail: under SyncInterval a commit that leaves data
// unsynced is synced within the interval even when no further commit
// comes — the "at most Interval unsynced" bound holds when traffic stops.
func TestIntervalSyncsIdleTail(t *testing.T) {
	const interval = 20 * time.Millisecond
	var s spy
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncInterval, Interval: interval, OpenFile: s.open})
	appendAll(t, l, "lonely")
	if n := s.syncs.Load(); n != 0 {
		t.Fatalf("append inside the interval synced %d times; the test needs it unsynced", n)
	}
	deadline := time.Now().Add(10 * interval)
	for s.syncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.syncs.Load() == 0 {
		t.Fatalf("idle tail still unsynced after %v (interval %v)", 10*interval, interval)
	}
	// Synced data arms nothing further: the log stays quiet while idle.
	n := s.syncs.Load()
	time.Sleep(3 * interval)
	if got := s.syncs.Load(); got != n {
		t.Errorf("idle, clean log synced %d more times", got-n)
	}
}

func TestCommitSteadyStateAllocationFree(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncInterval, Interval: time.Hour, SegmentBytes: 1 << 30})
	payload := bytes.Repeat([]byte("x"), 8)
	var b Batch
	fill := func() {
		b.Reset()
		for i := 0; i < 16; i++ {
			if err := b.Add(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if err := l.Commit(&b); err != nil { // grow the batch, arm the timer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fill()
		if err := l.Commit(&b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a 16-record commit allocates %.1f times at steady state, want 0", allocs)
	}
}

// BenchmarkWALCommit16 journals 16 eight-byte records (the size of a
// binary rec record) per op with one Commit — the shape of a served
// 16-recommend batch. Compare with 16 x BenchmarkWALAppend.
func BenchmarkWALCommit16(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Policy: SyncOnRotate, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 8)
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for j := 0; j < 16; j++ {
			if err := batch.Add(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Commit(&batch); err != nil {
			b.Fatal(err)
		}
	}
}
