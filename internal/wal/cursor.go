package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Cursor is a read-only, offset-addressable iterator over the records of a
// WAL directory, built for replay tooling that must walk a log without
// opening it for writing (the owning daemon may still hold it). The
// segment list is snapshotted at OpenCursor; records appended to segments
// created afterwards are not seen.
//
// Damage semantics match recovery: a torn tail in the final segment ends
// iteration cleanly (io.EOF), while damage inside a sealed segment is
// reported as ErrCorrupt.
type Cursor struct {
	dir  string
	segs []uint64
	i    int // index into segs of the open segment (len(segs) = exhausted)

	f   *os.File
	fr  *frameReader
	seg uint64 // segment number currently open
	off int64  // byte offset past the last record returned from seg
	idx int    // records returned so far
}

// OpenCursor snapshots dir's segment list and positions a cursor before
// the first record. An empty or missing directory yields a cursor whose
// Next immediately returns io.EOF.
func OpenCursor(dir string) (*Cursor, error) {
	segs, err := listSegments(dir, segSuffix)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Cursor{dir: dir}, nil
		}
		return nil, err
	}
	return &Cursor{dir: dir, segs: segs}, nil
}

// Next returns the next record payload, oldest first. The buffer is reused
// and only valid until the following Next call. It returns io.EOF when the
// log is exhausted (including after a tolerated torn tail in the last
// segment) and ErrCorrupt for damage in a sealed segment.
func (c *Cursor) Next() ([]byte, error) {
	for {
		if c.f == nil {
			if c.i >= len(c.segs) {
				return nil, io.EOF
			}
			seq := c.segs[c.i]
			f, err := os.Open(segmentPath(c.dir, segSuffix, seq))
			if err != nil {
				return nil, fmt.Errorf("wal: cursor: %w", err)
			}
			c.f, c.fr, c.seg, c.off = f, newFrameReader(f), seq, 0
		}
		payload, size, err := c.fr.next()
		switch {
		case err == nil:
			c.off += int64(size)
			c.idx++
			return payload, nil
		case errors.Is(err, io.EOF):
			c.closeSegment()
		case errors.Is(err, errTornFrame):
			last := c.i == len(c.segs)-1
			if !last {
				seq := c.seg
				c.closeSegment()
				c.i = len(c.segs) // poison: further Next calls hit EOF
				return nil, fmt.Errorf("%w: segment %08d damaged at offset %d", ErrCorrupt, seq, c.off)
			}
			c.closeSegment() // torn tail: tolerated, ends iteration
		default:
			return nil, fmt.Errorf("wal: cursor: %w", err)
		}
	}
}

// Skip advances past n records, stopping early (without error) if the log
// ends first. Damage in a sealed segment still reports ErrCorrupt.
func (c *Cursor) Skip(n int) error {
	for ; n > 0; n-- {
		if _, err := c.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Pos reports the cursor position: the open (or last-open) segment number,
// the byte offset just past the last record returned from it, and how many
// records have been returned in total.
func (c *Cursor) Pos() (segment uint64, offset int64, index int) {
	return c.seg, c.off, c.idx
}

// Close releases the open segment, if any. The cursor is unusable after.
func (c *Cursor) Close() error {
	if c.f != nil {
		err := c.f.Close()
		c.f, c.fr = nil, nil
		c.i = len(c.segs)
		return err
	}
	c.i = len(c.segs)
	return nil
}

func (c *Cursor) closeSegment() {
	c.f.Close()
	c.f, c.fr = nil, nil
	c.i++
}
