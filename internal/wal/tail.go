package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
)

// Tail follows a live log that another process (or goroutine) is still
// appending to — the read side of WAL shipping. Unlike Cursor, which
// snapshots the segment list once and treats the log as finished, a Tail
// keeps going: Next returns the next complete record when one exists,
// ErrNoRecord when it has caught up with the writer, and ErrLogReset when
// the writer truncated the log at a checkpoint barrier (Reset), at which
// point the tail re-arms at the start of the new log.
//
// Reads use pread (ReadAt) so a torn frame at the tip is retried from the
// same offset on the next call — no reader state is consumed by an
// incomplete record. The hard question is telling a record mid-write from
// sealed-region damage, and the rotation and reset protocols make it
// decidable:
//
//   - rotation syncs and closes segment N *before* creating N+1, so once
//     N+1 exists, N is immutable and must end in a complete record;
//   - Reset removes every segment and opens a strictly higher one, and the
//     daemon runs Retain 0, so a segment vanishing from the directory
//     means barrier, not retention.
//
// So on a short or checksum-failing read at the current offset, Next lists
// the directory: segment gone → ErrLogReset; a later segment exists → this
// one is sealed, re-read once now that it is immutable (a clean end means
// advance, anything else is real ErrCorrupt); otherwise it is the live
// tip → ErrNoRecord, poll again later.
type Tail struct {
	dir string
	f   *os.File
	seq uint64
	off int64
	buf []byte
}

// ErrNoRecord reports that the tail has caught up with the writer: no
// complete record exists past the current position yet. Poll again later.
var ErrNoRecord = errors.New("wal: no record at tip yet")

// ErrLogReset reports that the log was truncated at a checkpoint barrier
// (Reset) since the last read. The tail has re-armed at the start of the
// new log; the caller must re-seed from a checkpoint before reading on.
var ErrLogReset = errors.New("wal: log was reset")

// OpenTail starts following the log in dir from its oldest record. The
// directory does not need to exist yet; Next reports ErrNoRecord until it
// does.
func OpenTail(dir string) *Tail {
	return &Tail{dir: dir}
}

// Next returns the next complete record, ErrNoRecord at the live tip, or
// ErrLogReset after a checkpoint barrier. The returned slice is reused by
// the following Next call; the caller must not retain it.
func (t *Tail) Next() ([]byte, error) {
	for {
		if t.f == nil {
			if err := t.open(); err != nil {
				return nil, err
			}
		}
		payload, n, err := t.readFrame()
		if err == nil {
			t.off += int64(n)
			return payload, nil
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, errTornFrame) {
			return nil, err
		}
		// Short or invalid frame at the current offset: consult the
		// directory to decide between live tip, sealed segment, and reset.
		segs, lerr := listSegments(t.dir, segSuffix)
		if lerr != nil {
			return nil, lerr
		}
		present := false
		var next uint64
		haveNext := false
		for _, s := range segs {
			if s == t.seq {
				present = true
			}
			if s > t.seq && (!haveNext || s < next) {
				next, haveNext = s, true
			}
		}
		if !present {
			// Our segment is gone: checkpoint barrier. Re-arm at the start
			// of whatever log exists now and report the reset once.
			t.reset()
			return nil, ErrLogReset
		}
		if !haveNext {
			// Last segment: an incomplete frame here is a record still
			// being written (or not yet visible) — never corruption.
			return nil, ErrNoRecord
		}
		// A later segment exists, and it was created only after this one
		// was synced and closed — and crucially that listing happened after
		// our failed read. Re-read now that the segment is immutable.
		payload, n, err = t.readFrame()
		switch {
		case err == nil:
			t.off += int64(n)
			return payload, nil
		case errors.Is(err, io.EOF):
			// Clean end of a sealed segment: advance.
			if cerr := t.openSeq(next); cerr != nil {
				return nil, cerr
			}
		case errors.Is(err, errTornFrame):
			return nil, fmt.Errorf("%w: segment %08d damaged at offset %d", ErrCorrupt, t.seq, t.off)
		default:
			return nil, err
		}
	}
}

// Pos reports the current read position (segment number, byte offset).
func (t *Tail) Pos() (seq uint64, off int64) { return t.seq, t.off }

// Close releases the open segment. The tail may be reused afterwards; the
// next call reopens at the same position.
func (t *Tail) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// reset drops the position back to the start of the (new) log.
func (t *Tail) reset() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
	t.seq, t.off = 0, 0
}

// open attaches to the current position: the recorded segment when one is
// set, else the oldest segment on disk.
func (t *Tail) open() error {
	seq := t.seq
	if seq == 0 {
		segs, err := listSegments(t.dir, segSuffix)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return ErrNoRecord // directory not created yet
			}
			return err
		}
		if len(segs) == 0 {
			return ErrNoRecord
		}
		seq = segs[0]
		t.off = 0
	}
	return t.openSeq(seq)
}

// openSeq switches the tail to segment seq at offset 0 (or the retained
// offset when re-attaching to the same segment).
func (t *Tail) openSeq(seq uint64) error {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
	f, err := os.Open(segmentPath(t.dir, segSuffix, seq))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Raced a Reset between listing and open: re-arm.
			t.seq, t.off = 0, 0
			return ErrLogReset
		}
		return fmt.Errorf("wal: tail: %w", err)
	}
	if seq != t.seq {
		t.off = 0
	}
	t.f, t.seq = f, seq
	return nil
}

// readFrame decodes one frame at the current offset with pread, leaving
// the position untouched: io.EOF means a clean record boundary at end of
// file, errTornFrame means an incomplete or invalid frame (retryable at a
// live tip, damage in a sealed segment).
func (t *Tail) readFrame() ([]byte, int, error) {
	var hdr [headerSize]byte
	if n, err := t.f.ReadAt(hdr[:], t.off); err != nil {
		if errors.Is(err, io.EOF) {
			if n == 0 {
				return nil, 0, io.EOF
			}
			return nil, 0, errTornFrame
		}
		return nil, 0, fmt.Errorf("wal: tail read: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecordBytes {
		return nil, 0, errTornFrame
	}
	need := int(length)
	if cap(t.buf) < need {
		t.buf = make([]byte, need)
	}
	payload := t.buf[:need]
	if _, err := t.f.ReadAt(payload, t.off+headerSize); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, errTornFrame
		}
		return nil, 0, fmt.Errorf("wal: tail read: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, errTornFrame
	}
	return payload, headerSize + need, nil
}
